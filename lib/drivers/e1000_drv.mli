(** The Intel E1000 gigabit Ethernet driver — the paper's case-study
    driver (§5) — in native and decaf builds.

    In decaf mode the initialization, EEPROM validation, PHY bring-up,
    watchdog, and shutdown logic run in the decaf driver with real XDR
    marshaling of the adapter structure (see {!E1000_objects}); the
    transmit path and interrupt handler stay in the driver nucleus. The
    watchdog fires from a kernel timer every two seconds and is deferred
    to a work item so it may cross to user level (§3.1.3). Error
    handling at user level uses checked exceptions with the nested
    cleanup of Figure 4; {!Decaf_kernel.Kmem} failure injection
    exercises every cleanup arm. *)

type t

val vendor_id : int

val setup_device :
  slot:string ->
  mmio_base:int ->
  irq:int ->
  ?device_id:int ->
  mac:string ->
  link:Decaf_hw.Link.t ->
  unit ->
  Decaf_hw.E1000_hw.t

val packed : Driver_core.packed
(** For {!Driver_core.register}: registry name ["e1000"], the full id
    table ({!Pci_family}); the last unbind resets the module
    parameters. *)

val netdev : t -> Decaf_kernel.Netcore.t

val netdev_at : slot:string -> Decaf_kernel.Netcore.t option
(** The netdev of whichever instance is bound to the given PCI slot —
    how a fleet harness reaches instances it bound through the registry
    (which returns binding ids, not handles). [None] if the slot is
    unbound on this boot or the instance has no netdev yet. *)

val at : slot:string -> t option
(** The instance bound to the given PCI slot, whatever its binding id. *)

val watchdog_runs : t -> int
(** Times the watchdog has executed (in the decaf driver when in decaf
    mode). *)

val diag_test : t -> int
(** The ethtool interrupt test, correctly implemented in the driver
    nucleus: waits for the interrupt handler to flip the link flag.
    Returns 0 on success. *)

val diag_test_at_user_level : t -> int
(** The same test deliberately implemented in the decaf driver — the
    explicit data race of §5 that kept four ethtool functions in the
    kernel. The interrupt handler updates the kernel object while this
    polls its marshaled copy, so it returns [-ETIMEDOUT]. *)

val kernel_adapter : t -> E1000_objects.kernel_adapter
val adapter_wire_bytes : int

(** {1 Module parameters}

    Validated at probe time by the checker classes of
    {!Decaf_runtime.Params} (the paper's e1000_param.c rewrite). *)

val set_module_params :
  ?tx_descriptors:int ->
  ?interrupt_throttle:int ->
  ?smart_power_down:int ->
  unit ->
  unit

val reset_module_params : unit -> unit

val checked_params : (string * Decaf_runtime.Params.outcome) list ref
(** Name and validation outcome of each parameter after the last probe
    (module-wide, kept for tooling compatibility; instances snapshot
    their own copy — see {!params}). *)

type params = {
  p_tx_descriptors : int;
  p_interrupt_throttle : int;
  p_smart_power_down : int;
}
(** Validated per-instance parameter snapshot, captured at probe. Two
    NICs probed under different insmod arguments keep distinct values
    even though the command-line refs above are shared. *)

val params : t -> params

val active : unit -> t option
(** Binding ["e1000"]'s instance ({!Pci_family.Make.active}); fleet
    instances bound as "e1000#k" never disturb it. *)
