(** One PCI driver module serving a family of device bindings: the
    multi-instance machinery e1000, 8139too and ens1371 share.

    The first bind loads the module; the load is refcounted across
    instances, and later binds rescan the bus for one more device. The
    PCI probe callback only claims the device the current bind asked
    for. [rmmod] releases one instance's device, and the last one
    unloads the module. Every {!Decaf_kernel.Boot.boot} forgets the
    bindings, the load and the pending bind. *)

module type DRIVER = sig
  type adapter

  val name : string
  (** Module and PCI driver name. *)

  val ids : (int * int) list
  (** (vendor, device) pairs the PCI driver claims. *)

  val scope : adapter -> string
  (** Binding id: the bare {!name} for instance 0. *)

  val slot : adapter -> string
  val probe : Driver_env.t -> Decaf_kernel.Pci.dev -> (adapter, int) result

  val unbind : adapter -> unit
  (** PCI remove: release what [probe] acquired (per-instance [rmmod],
      surprise removal and module unload all come here). *)

  val quiesce : adapter -> unit
  (** Run by [rmmod] before the device is detached. *)

  val unloaded : unit -> unit
  (** Run when the last [rmmod] unloads the module. *)
end

module Make (D : DRIVER) : sig
  type t = private {
    adapter : D.adapter;
    mutable module_handle : Decaf_kernel.Modules.handle option;
  }

  val insmod : ?dev:string -> Driver_env.t -> (t, int) result
  (** Load the module, or bind one more device when it is loaded
      already. [dev] pins the bind to one PCI slot; without it the
      first unbound matching device is claimed. *)

  val rmmod : t -> unit

  val active : unit -> t option
  (** The bare-scoped instance, until its [rmmod] or the next boot. *)

  val init_latency_ns : t -> int
  val adapter_at : slot:string -> D.adapter option
end
