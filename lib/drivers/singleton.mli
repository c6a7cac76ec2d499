(** One driver module bound to its one device: the load/unload skeleton
    psmouse and uhci-hcd share, and their one description to the
    {!Driver_core} registry, as {!Pci_family} is for the PCI drivers.

    A second bind while the module is loaded is refused with [-EBUSY].
    Every {!Decaf_kernel.Boot.boot} forgets the active instance. *)

module type DRIVER = sig
  type adapter

  val name : string
  (** Registry name. *)

  val module_name : string
  (** Kernel module name (uhci-hcd's module is [uhci_hcd]). *)

  val bus : Decaf_kernel.Hotplug.bus
  (** The bus whose removal events reach the binding; a singleton's bus
      has no ids to re-probe by. *)

  val probe : Driver_env.t -> (adapter, int) result
  (** Module init: bind the one device. *)

  val exit : adapter -> unit
  (** Module exit: release what the probe acquired. *)

  val suspend : adapter -> unit
  val resume : adapter -> unit

  val owns : adapter -> string -> bool
  (** Whether a bus device id (input or HCD name) is this instance's. *)
end

module Make (D : DRIVER) : sig
  type t = private {
    adapter : D.adapter;
    mutable module_handle : Decaf_kernel.Modules.handle option;
  }

  val packed : Driver_core.packed
  (** The driver for {!Driver_core.register}. *)

  val active : unit -> t option
  (** The bound instance, until it is removed or the next boot. *)
end
