(** The typed boundary fault and its machine-wide accounting.

    Everything a decaf driver hands back across the XPC boundary is
    untrusted: forged object handles, out-of-range field values,
    replayed delta acknowledgements, unbounded queue growth. Each
    validation layer ({!Guard}, {!Objtracker} handle resolution,
    {!Marshal_plan.Dirty} acknowledge, {!Batch} queue bounds) reports
    here, and a detected violation raises {!Boundary_violation} — an
    ordinary exception, never a [Panic.Kernel_bug], so the recovery
    supervisor treats it as one more recoverable driver fault. *)

exception
  Boundary_violation of {
    type_id : string;
    field : string;
    reason : string;
  }

type counters = {
  mutable checks : int;  (** validations performed *)
  mutable rejected : int;  (** violations detected (raised or refused) *)
  mutable dropped : int;  (** inbound work discarded without a fault *)
}

val totals : counters
(** Machine-wide counters, zeroed with the per-scope figures on every
    {!Decaf_kernel.Boot.boot}. *)

val enter : string -> string
(** [enter name] attributes rejections and drops to the named scope (a
    driver binding) from now on, and returns the scope it replaces for
    {!leave}. The scope is a plain string, so a crossing that brackets
    its body with [enter]/[leave] allocates nothing. *)

val leave : string -> unit
(** [leave saved] restores the scope that {!enter} returned. Restore it
    on the exceptional path too. *)

val scoped : string -> (unit -> 'a) -> 'a
(** Run [f] between {!enter} and {!leave}, also when it raises: the
    bracket for code that already holds its work as a closure. *)

val rejected_for : string -> int
(** Rejections attributed to the named scope since the last reset. *)

val dropped_for : string -> int
(** Drops (queue-bound, ring overflow, teardown discards) attributed to
    the named scope since the last reset. [Batch.post] and [Ring] both
    report through {!note_dropped}, so the per-scope figures reconcile
    against [totals.dropped]. *)

val note_check : unit -> unit
val note_rejected : unit -> unit

val note_dropped : unit -> unit
(** Count one inbound-work drop, attributed to the current scope (set
    with {!scoped}) like rejections are. *)

val reject : type_id:string -> field:string -> ('a, unit, string, 'b) format4 -> 'a
(** Count a rejection and raise {!Boundary_violation}. *)
