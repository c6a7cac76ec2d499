(** Zero-copy shared-ring XPC with doorbell semantics.

    The third transfer mode beside {!Batch} (one crossing per flush,
    payload still marshaled) and {!Marshal_plan.Dirty} (smaller
    payloads, still one XDR walk per sync): a fixed-layout record ring
    conceptually mapped into both domains, its storage grown on demand
    up to 256 slots. The producer
    (kernel hot path, often irq context) writes a slot for
    {!Decaf_kernel.Cost.t.ring_slot_write_ns} — a handful of stores,
    no crossing, no marshaling — and only rings a doorbell (ONE real
    {!Channel} crossing with a zero-byte payload) when 64 slots are
    occupied or the 100 ms latency-bound timer fires; the consumer then
    drains every occupied slot without further control transfers. When
    the doorbell rings is {!Doorbell}'s job, shared with {!Batch}.

    The ring is itself a boundary and keeps the PR 6 threat model:
    slots carry capability handles (never raw kernel addresses), the
    handle is resolved through the {!Objtracker} before the record is
    believed, the remaining fields are validated by a plan-derived
    {!Guard}, the depth is bounded with drop+count on overflow, and
    every drop/rejection reports through {!Boundary} under the owning
    binding's scope so [decafctl status] can reconcile totals. *)

type record = {
  kind : int;  (** event discriminator, guard-checked against an enum *)
  handle : int;  (** capability handle, resolved before use *)
  arg0 : int;
  arg1 : int;
}
(** One fixed-layout slot. No pointers, no variable-length data: what
    cannot be expressed in four integers does not belong on the fast
    path and takes the delta-sync slow path instead. *)

val table :
  type_id:string ->
  kinds:int list ->
  arg0:Guard.rule ->
  arg1:Guard.rule ->
  Codec.t
(** A ring's slot table: [kind] must be one of [kinds], [arg0] and
    [arg1] obey their rules, and every field is Write, because the
    untrusted domain can scribble the shared slots. {!Codec.guard} of it
    is the ring's [guard]. *)

val forge : Codec.t -> handle:int -> (string * Codec.value) list -> record
(** A record of the table with the named fields set (ints only) and the
    rest at {!Codec.in_envelope}: what a hostile driver writes into a
    slot. *)

type stats = {
  mutable produced : int;  (** slots accepted into a ring *)
  mutable consumed : int;  (** slots validated and handed to a handler *)
  mutable doorbells : int;  (** real crossings rung to start drains *)
  mutable overflow : int;  (** slots dropped at a full ring *)
  mutable rejected : int;  (** slots refused by handle/guard validation *)
  mutable discarded : int;  (** slots thrown away at destroy/teardown *)
  mutable requeues : int;  (** doorbell crossings that failed and retried *)
  mutable high_water : int;  (** max occupancy observed *)
}

type t

val create :
  name:string ->
  target:Domain.t ->
  guard:Guard.t ->
  resolve:(int -> (int, string) result) ->
  handler:(record -> unit) ->
  unit ->
  t
(** Allocate a 256-slot ring owned by the named binding. [resolve] maps a slot's
    capability handle to the kernel object (rejections counted by the
    tracker); [guard] validates the remaining fields; [handler] runs in
    the [target] domain for each valid record. Replaces any previous
    ring of the same name. *)

val produce : t -> record -> bool
(** Write one slot (irq-safe: never crosses, only defers the doorbell).
    Returns [false] when the ring is full — the slot is dropped and
    counted ({!Boundary.note_dropped} under the ring's scope) and the
    caller falls back to the delta-sync path so freshness, not
    correctness, is what degrades. *)

val drain : t -> unit
(** Ring the doorbell now (process context): one idempotent zero-byte
    crossing whose body validates and consumes every occupied slot. A
    failed crossing leaves the slots in place and re-arms the timer. *)

val drain_all : unit -> unit
(** Drain every registered ring and flush the doorbell workers —
    the PM/unbind flush point (suspend, rmmod, run teardown). *)

val destroy : t -> unit
(** Drop any remaining slots (counted as [discarded] and reported as
    boundary drops) and unregister the ring — the surprise-removal
    path, where no consumer will ever drain again. *)

val find : name:string -> t option
val name : t -> string
val occupancy : t -> int

val pending : unit -> int
(** Total occupancy across all registered rings. *)

val stats_of : t -> stats

val stats : unit -> stats
(** Machine-wide totals (live) since the last
    {!Decaf_kernel.Boot.boot}, which also forgets every ring and the
    doorbell infrastructure and turns the ring axis off. Invariant:
    [produced = consumed + rejected + discarded + pending ()] —
    overflow slots were never accepted, so they are not produced. *)

val snapshot : unit -> stats
(** Copy of the machine-wide totals. *)

(** {1 The ring axis} *)

val set_enabled : bool -> unit
(** Toggle the ring fast path as an Xpcperf config axis (off by
    default, like batching). Gates only whether drivers *choose* the
    ring; an already-created ring always works, so teardown drains and
    campaign attacks behave identically on either setting. *)

val enabled : unit -> bool
