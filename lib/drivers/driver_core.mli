(** The unified driver model: one signature, one registry, one lifecycle.

    Each of the five drivers exports a [Core] module implementing
    {!DRIVER}; the registry owns, per bound driver, its
    {!Driver_env.t} (made fresh at every bind, scoped to the binding
    id, closed at unbind; its meter is the snapshot's crossing, notify
    and sync count),
    its recovery {!Decaf_runtime.Supervisor.t}, and an explicit
    lifecycle state machine. All load/unload, suspend/resume and hotplug paths go
    through here, so the fault campaign, Table 3 and [decafctl status]
    all observe the same per-driver snapshot instead of per-driver
    one-off accessors.

    {2 Lifecycle}

    {v
      Unbound ──insmod──▶ Probed ──ok──▶ Running ◀──resume── Suspended
         ▲                   │              │  └──suspend──────▲
         └────probe fails────┘              │
                                            ▼
      Removed ◀──rmmod/hotplug──(Running|Suspended|Disabled)
         │                                  │fault
         └──────replug/insmod──▶ Probed     ▼
                                        Recovering ──budget out──▶ Disabled
    v}

    Illegal transitions (suspending a driver that is not running,
    loading one that is already bound, resuming one that is not
    suspended, ...) raise {!Illegal_transition}; errno-style failures
    (probe rejected, supervisor gave up) come back as [Error _]. *)

type lifecycle =
  | Unbound
  | Probed
  | Running
  | Suspended
  | Recovering
  | Disabled
  | Removed

exception
  Illegal_transition of {
    driver : string;
    from_ : lifecycle;
    to_ : lifecycle;
  }

val lifecycle_name : lifecycle -> string

(** What a driver must provide to be managed by the registry. *)
module type DRIVER = sig
  type t

  val name : string
  (** Registry name; also the campaign/Table-3 row name. *)

  val bus : Decaf_kernel.Hotplug.bus

  val ids : (int * int) list
  (** (vendor, device) pairs for hotplug re-probe matching; empty for
      buses without ids (input, USB host side). *)

  val probe : Driver_env.t -> dev:string option -> (t, int) result
  (** Load the module (first instance) and bind one device. [dev]
      pins the probe to a specific bus device id (a PCI slot);
      [None] claims any matching unbound device. A module serving a
      fleet is probed once per instance. *)

  val remove : t -> unit
  (** Tear down and unload: the existing [rmmod]. *)

  val suspend : t -> unit
  (** PM suspend hook: crosses to the decaf driver like any other
      non-critical path. Raises on hardware/XPC faults. *)

  val resume : t -> unit
  (** PM resume hook; resyncs the user-level object view. *)

  val owns : t -> string -> bool
  (** Whether a bus device id (PCI slot, input/HCD name) belongs to this
      instance — routes hotplug removal events. *)

  val init_latency_ns : t -> int
end

type packed = Pack : (module DRIVER with type t = 'a) -> packed

type snapshot = {
  s_driver : string;  (** bare driver name, shared by the whole fleet *)
  s_binding : string;
      (** binding id: equal to [s_driver] for instance 0, ["name#k"]
          for instance [k > 0] — the key under which this instance's
          ring and boundary scopes are registered *)
  s_instance : int;
  s_state : lifecycle;
  s_mode : Driver_env.mode option;  (** [None] until first bound *)
  s_crossings : int;  (** upcalls + downcalls requested through the env *)
  s_wire_bytes : int;  (** payload bytes of those calls *)
  s_notifies : int;  (** deferred notifications posted *)
  s_deferred_syncs : int;
      (** notifies delivered and ring records applied: the env meter's
          syncs, 0 in native *)
  s_rejections : int;
      (** boundary-validation rejections attributed to this binding
          (forged/stale handles, field violations, forged acks) —
          {!Decaf_xpc.Boundary.rejected_for} under the binding's scope *)
  s_dropped : int;
      (** boundary drops attributed to this binding (batch queue bound,
          ring overflow, teardown discards) —
          {!Decaf_xpc.Boundary.dropped_for} under the same scope, so
          drops and rejections reconcile in one accounting *)
  s_ring_occupancy : int;  (** slots currently occupied in the binding's
          shared ring (0 when it has none) *)
  s_ring_high_water : int;  (** max ring occupancy observed *)
  s_ring_doorbells : int;  (** doorbell crossings fired for this ring *)
  s_ring_drops : int;  (** ring slots lost: overflow + teardown discards *)
  s_supervisor : Decaf_runtime.Supervisor.stats option;
  s_restarts_left : int;
  s_init_latency_ns : int;
}

val register : packed -> unit
(** Idempotent per driver name; replaces any previous registration. *)

val registered : unit -> string list
(** Distinct driver names, registration order (one entry per driver,
    however many instances exist). *)

val instances_of : string -> string list
(** Binding ids of every instance of the named driver (or of the named
    binding's driver), instance order. *)

val state : string -> lifecycle
(** Raises [Invalid_argument] for an unregistered name. Every
    string-keyed operation below accepts either a bare driver name
    (instance 0) or a binding id ["name#k"]. *)

val supervisor : string -> Decaf_runtime.Supervisor.t option
(** The supervisor the registry attached at the last bind, if any. *)

val insmod : string -> mode:Driver_env.mode -> (unit, int) result
(** Bind the named driver: fresh supervisor, fresh environment,
    [Unbound/Removed -> Probed -> Running]. The probe runs under the
    supervisor, so a faulting probe is retried within the restart
    budget; [Error] is the probe's errno (or [-EIO] after the budget is
    exhausted, leaving the driver [Disabled]). *)

val bind_device :
  string ->
  ?dev:string ->
  mode:Driver_env.mode ->
  unit ->
  (string, int) result
(** Bind one more device to the named driver: reuses the lowest free
    (Unbound/Removed) instance binding or creates the next one, pins it
    to [dev] when given (hotplug re-probe then only accepts that
    device back), and runs the same supervised insmod path. Returns the
    binding id to use with {!rmmod}, {!suspend}, {!snapshot}, ... *)

val rmmod : string -> unit
(** Unbind ([Running | Suspended | Disabled] -> [Removed]): drains
    batched notifications, then removes the instance. *)

val eject : string -> unit
(** Surprise (hotplug) removal of a bound driver's device: drains
    in-flight crossings and batched notifies, then unbinds — the same
    path bus [Device_removed] events take through the registry. No-op
    for drivers that are not bound. *)

val suspend : string -> (unit, int) result
(** [Running -> Suspended]. Crosses to the decaf driver's suspend hook,
    then flushes {!Decaf_xpc.Batch} queues (and with them any pending
    {!Decaf_xpc.Marshal_plan.Dirty} deltas) while the device is still
    powered. Supervised when the registry is not already inside
    {!run}. *)

val resume : string -> (unit, int) result
(** [Suspended -> Running]. The driver's resume hook re-marks the
    object view dirty so the resume crossing carries a full image. *)

val run :
  string -> mode:Driver_env.mode -> (unit -> 'a) -> 'a option
(** Run a full supervised episode: bind, execute the body, unbind —
    retried as a whole by the registry-attached supervisor on decaf
    faults, [None] when the restart budget is exhausted (driver left
    [Disabled]). While the body runs, nested registry operations
    ({!suspend}, {!eject}, {!insmod} after a hotplug removal) execute
    directly under the same supervision instead of re-wrapping. *)

val snapshot : string -> snapshot

val snapshots : unit -> snapshot list
(** One {!snapshot} per binding, stable-sorted by
    (driver name, instance id). *)

val render_status : snapshot list -> string
(** The [decafctl status] table: one row per binding plus an aggregate
    TOTAL row when more than one binding exists. *)
