(** One PCI driver module serving a family of device bindings: the
    multi-instance machinery e1000, 8139too and ens1371 share, and the
    driver's one description to the {!Driver_core} registry.

    The first bind loads the module; the load is refcounted across
    instances, and later binds rescan the bus for one more device. The
    PCI probe callback only claims the device the current bind asked
    for. Removing a binding releases its device, and the last one
    unloads the module. Every {!Decaf_kernel.Boot.boot} forgets the
    bindings, the load and the pending bind. *)

module type DRIVER = sig
  type adapter

  val name : string
  (** Module, PCI driver and registry name. *)

  val ids : (int * int) list
  (** (vendor, device) pairs the PCI driver claims, and the registry
      matches on hotplug re-probe. *)

  val slot : adapter -> string
  (** The PCI slot the instance claimed: the binding owns that device. *)

  val probe : Driver_env.t -> Decaf_kernel.Pci.dev -> (adapter, int) result

  val unbind : adapter -> unit
  (** PCI remove: release what [probe] acquired (per-instance removal,
      surprise removal and module unload all come here). *)

  val quiesce : adapter -> unit
  (** Run before the device is detached. *)

  val unloaded : unit -> unit
  (** Run when the last binding unloads the module. *)

  val suspend : adapter -> unit
  val resume : adapter -> unit
end

module Make (D : DRIVER) : sig
  type t = private {
    adapter : D.adapter;
    mutable module_handle : Decaf_kernel.Modules.handle option;
  }

  val packed : Driver_core.packed
  (** The driver for {!Driver_core.register}: PCI bus, [D.ids], owning
      the slot each instance claimed. Its probe loads the module or binds
      one more device; [dev] pins the bind to one PCI slot. *)

  val active : unit -> t option
  (** The registry's instance 0, until it is removed or the next boot. *)

  val at : slot:string -> t option
  (** The instance bound to a PCI slot, whatever its binding id. *)
end
