(** Batched XPC: per-boundary deferred-call queues with a doorbell.

    Non-urgent upcalls — stats updates, link-state notifications, log
    events, multicast-list updates — do not need a crossing each. They
    are posted to a per-target queue and flushed in one crossing when a
    doorbell rings, a watermark is reached, or a timer expires: N
    deferred calls pay one pair of crossings plus their summed payload
    bytes instead of N pairs.

    A deferred call is necessarily one-way: the poster has moved on
    before it runs, so nothing can be returned to it. That is why
    deferral is this module's [post] (taking [unit -> unit]) rather than
    a flag on {!Channel.call}. It is also why correctness-critical calls
    must never be deferred: anything executed while holding a combolock,
    or whose reply the caller's next step depends on, must use
    {!Channel.call} directly (see DESIGN.md, "Batched XPC and delta
    marshaling").

    Posting is non-blocking and legal from interrupt context; the actual
    crossings happen in process context (a dedicated workqueue, or the
    caller of {!doorbell}/{!drain}). The flush crossing goes through
    {!Channel.call} with [~idempotent:true] under context
    ["batch.flush"], so it inherits the timeout/retry machinery and the
    fault plan; a flush that fails even after retries requeues its batch
    intact and is retried 1 ms later — deferred calls are neither
    dropped, duplicated nor stranded.

    When a queue flushes is {!Doorbell}'s job, shared with {!Ring}: the
    flush workqueues, the timer, and the back-off while the target's
    worker pool is full. *)

type stats = {
  mutable posted : int;  (** deferred calls enqueued *)
  mutable delivered : int;  (** deferred calls that have run in the target *)
  mutable flush_crossings : int;  (** batched flushes (one crossing each) *)
  mutable single_crossings : int;
      (** per-call crossings paid while batching is disabled *)
  mutable max_batch : int;  (** largest batch delivered by one crossing *)
  mutable requeues : int;  (** failed flushes whose batch was requeued *)
  mutable dropped : int;
      (** posts refused because the target queue sat at
          {!Guard.limits}[.max_batch_queue] — graceful degradation
          against a driver that posts without draining. Dropping (not
          raising) is deliberate: posting is legal from interrupt
          context, where a boundary fault could not be supervised. *)
}

val post :
  target:Domain.t ->
  ?payload_bytes:int ->
  ?context:string ->
  (unit -> unit) ->
  unit
(** Defer [f] for execution in [target]. FIFO per target. If [target] is
    the current domain, [f] runs immediately (no crossing either way).

    With batching enabled the queue is flushed when it reaches 32 calls
    or when the flush timer, armed on first post, expires after 10 ms.
    With batching disabled — the measurement baseline — each post is
    delivered promptly with its own crossing, charged under [context]
    (default ["notify"]), which is also the fault-plan site name. *)

val doorbell : unit -> unit
(** Flush every queue now. From process context the flush happens
    synchronously in the caller's thread; from interrupt context (or
    under a spinlock) it is deferred to the flush workqueue. *)

val drain : unit -> unit
(** Synchronously deliver everything: flush all queues, then wait for
    the flush workqueue to go idle. Must be called from process context.
    Used on shutdown paths (e.g. [ndo_stop]) so no deferred call
    outlives its device. *)

val pending : unit -> int
(** Deferred calls currently queued, all targets. *)

val set_enabled : bool -> unit
(** Turn batching on/off. Off by default (each post pays its own
    crossing), matching the unoptimized Decaf path. *)

val stats : unit -> stats
(** Counters since the last {!Decaf_kernel.Boot.boot}. Every boot also
    drops the queues, turns batching off and forgets the flush
    workqueues and timer, which are created again on the next post, so
    a reboot never leaves a stale worker behind. *)

val snapshot : unit -> stats
