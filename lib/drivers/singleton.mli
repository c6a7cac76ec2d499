(** One driver module bound to its one device: the load/unload skeleton
    psmouse and uhci-hcd share, as {!Pci_family} is for the PCI
    drivers.

    A second load while the module is loaded is refused with [-EBUSY].
    Every {!Decaf_kernel.Boot.boot} forgets the active instance. *)

module type DRIVER = sig
  type adapter

  val name : string
  (** Kernel module name. *)

  val exit : adapter -> unit
  (** Module exit: release what the probe acquired. *)
end

module Make (D : DRIVER) : sig
  type t = private {
    adapter : D.adapter;
    mutable module_handle : Decaf_kernel.Modules.handle option;
  }

  val load : (unit -> (D.adapter, int) result) -> (t, int) result
  (** Load the module, running the probe as its init. *)

  val rmmod : t -> unit

  val active : unit -> t option
  (** The loaded instance, until its [rmmod] or the next boot. *)

  val init_latency_ns : t -> int
end
