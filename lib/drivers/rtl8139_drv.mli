(** The 8139too fast-Ethernet driver, in native and decaf builds.

    The data path — [start_xmit] and the interrupt handler — always runs
    in the kernel (they are the critical roots in the paper's Table 2);
    initialization, EEPROM/PHY bring-up, and shutdown run wherever the
    {!Driver_env.t} sends them. *)

type t

val vendor_id : int
val device_id : int

val setup_device :
  slot:string -> io_base:int -> irq:int -> mac:string -> link:Decaf_hw.Link.t ->
  unit -> Decaf_hw.Rtl8139.t
(** Create the device model and plug the matching PCI function into the
    bus. Call before {!insmod}. *)

val insmod : ?dev:string -> Driver_env.t -> (t, int) result
(** Load the module, or — when it is already loaded — bind one more
    device to it (the module is refcounted across instances). [dev]
    pins the bind to one PCI slot; without it the first unbound
    matching device on the bus is claimed. Must run in a scheduler
    thread. *)

val rmmod : t -> unit
(** Release this instance's device; the module itself is unloaded only
    when the last instance goes. *)

val init_latency_ns : t -> int
val netdev : t -> Decaf_kernel.Netcore.t

val adapter_wire_bytes : int
(** Marshaled size of a full [struct rtl8139_private] image (see
    {!Rtl8139_objects.wire_size}) used for XPC accounting. *)

val kernel_nic : t -> Rtl8139_objects.kernel_nic

val active : unit -> t option
(** The instance bound by the most recent successful [insmod], until its
    [rmmod] or the next {!Decaf_kernel.Boot.boot}. *)

val suspend : t -> unit
(** PM suspend: cross to the decaf driver, quiesce the chip, stop the
    queue. *)

val resume : t -> unit
(** PM resume: full-image view resync
    ({!Rtl8139_objects.resync_user_view}), then chip reset and restart
    if the interface was up. *)

module Core : Driver_core.DRIVER with type t = t
(** Registry name ["8139too"], PCI bus, the single (10ec, 8139) id. *)
