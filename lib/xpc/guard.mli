(** Plan-derived validators for inbound crossings.

    The kernel side of the XPC boundary treats the user-level driver as
    untrusted: whatever comes back from an upcall (or rides a deferred
    notification) is validated before kernel state absorbs it. A guard
    is built from a {!Marshal_plan.t} plus per-field rules, and keeps
    each field's writability and rule in plan order; a check finds its
    field by scanning the plan's names (a crossing structure has a
    handful of fields), with no table and no plan lookup. Every checker
    first enforces writability — a field the plan marks [Read] must
    never be accepted inbound — and then the field's rule.
    Violations raise {!Boundary.Boundary_violation} (counted in
    {!Boundary.totals}), which the recovery supervisor handles like any
    other driver fault: restart within budget, never a panic.

    Each accepted check charges {!Decaf_kernel.Cost.t.guard_check_ns}
    through {!Dispatch.charge}: the checks run on the kernel side of a
    reply, off every worker lane, so they land in the off-lane account.
    The Xpcperf guard axis prices them in [xpc_ns] (the guard-off cells
    read lower), while goodput stays wire-bound. *)

type rule =
  | Range of int * int  (** inclusive bounds *)
  | Enum of int list
  | Max_len of int  (** bound on a variable-length array *)
  | Non_negative
  | Any  (** writability check only *)

type t

val make : Marshal_plan.t -> (string * rule) list -> t
(** Rules may only name fields of the plan; unknown fields and duplicate
    rules raise [Invalid_argument] (a stub-generation bug, not runtime
    hostility). Planned fields without a rule get the writability check
    only. *)

val type_id : t -> string

val rejections : t -> int
(** Violations this validator has detected since construction. *)

val int_field : t -> field:string -> int -> int
val bool_field : t -> field:string -> bool -> bool
val array_field : t -> field:string -> int array -> int array
(** Validate one inbound field (writability, then rule); return the
    value unchanged when it passes. With the guard axis off they are
    free passthroughs. *)

val check_inbound_bytes : t -> int -> unit
(** Bound one inbound payload's size ({!limits}[.max_inbound_bytes]) —
    the kmalloc an inbound crossing can force on the kernel. Enforced
    even when the guard axis is off. *)

val reject_malformed : t -> string -> 'a
(** Count an inbound payload that does not decode as one image of the
    plan, and raise {!Boundary.Boundary_violation} on ["payload"]. *)

(** {1 The guard axis} *)

val set_enabled : bool -> unit
(** Toggle per-field validation (on by default). Off is the Xpcperf
    measurement baseline for the validation-cost overhead; capability
    handles and payload bounds stay enforced either way. *)

val is_enabled : unit -> bool

(** {1 Inbound growth limits} *)

type limits = {
  mutable max_inbound_bytes : int;
      (** largest accepted inbound payload (default 4096) *)
  mutable max_batch_queue : int;
      (** deferred-call queue bound per target, enforced by
          {!Batch.post} as drop + count (default 1024) *)
}

val limits : limits

val configure : ?max_inbound_bytes:int -> ?max_batch_queue:int -> unit -> unit
(** Module-parameter discipline: an out-of-range value logs a warning
    and falls back to the default instead of being honored. *)

val reset : unit -> unit
(** Re-enable validation and restore default limits, as every
    {!Decaf_kernel.Boot.boot} does. *)
