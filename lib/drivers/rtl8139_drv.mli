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
    bus. Call before binding. *)

val packed : Driver_core.packed
(** For {!Driver_core.register}: registry name ["8139too"], the single
    (10ec, 8139) id ({!Pci_family}). Binds run in a scheduler thread. *)

val netdev : t -> Decaf_kernel.Netcore.t

val adapter_wire_bytes : int
(** Marshaled size of a full [struct rtl8139_private] image (see
    {!Rtl8139_objects.wire_size}) used for XPC accounting. *)

val kernel_nic : t -> Rtl8139_objects.kernel_nic

val active : unit -> t option
(** Binding ["8139too"]'s instance ({!Pci_family.Make.active}). *)
