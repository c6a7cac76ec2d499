(** The doorbell core under {!Batch} and {!Ring}: when a deferred
    queue crosses, apart from how it crosses.

    A client keeps per-key queues and a [flush] that delivers one key's
    queue in one crossing; the core decides when that runs. An enqueue
    that fills a queue to the watermark defers a drain at once, a
    smaller one arms the latency-bound timer, and the timer's expiry
    defers a drain of every key. Deferred drains run in process context
    on min({!Dispatch.workers}, 4) workqueues picked round-robin, and
    back off 1 ms while the key's target has
    {!Channel.in_flight}[ target >= Dispatch.workers ()]: a deferred
    notification never lands in a domain whose workers are all busy.

    One failure policy for every path: a flush whose crossing failed
    keeps its items, and the timer is reprogrammed to the 1 ms retry
    even when it was pending. *)

type 'k t

val create :
  name:string ->
  watermark:int ->
  interval_ns:int ->
  keys:(unit -> 'k list) ->
  target:('k -> Domain.t) ->
  flush:('k t -> 'k -> bool) ->
  'k t
(** [name] names the workqueues ([name/i]) and the timer
    ([name-doorbell]). [keys ()] lists every key in the timer's fan-out
    order. [flush d k] delivers [k]'s queue now and returns [false] when
    the crossing failed and the items stayed queued; it gets [d] to read
    the axis flag. Every {!Decaf_kernel.Boot.boot} forgets the
    workqueues, the timer and the cursor, and turns the axis flag off. *)

val trigger : 'k t -> 'k -> fill:int -> unit
(** After an enqueue left [fill] items under [k]: defer a drain of [k]
    when [fill] reached the watermark, else arm the timer unless it is
    pending. Legal in interrupt context, like {!kick} and {!kick_all}. *)

val kick : 'k t -> 'k -> unit
(** Defer a drain of [k] now. *)

val kick_all : 'k t -> unit
(** Defer a drain of every key now, as the timer does. *)

val drain : 'k t -> 'k -> unit
(** Flush [k] in the caller's thread, not gated on the target's
    workers: the caller owns the ordering. *)

val drain_all : 'k t -> unit
(** Drain every key, then wait for the flush workqueues to go idle. *)

val set_enabled : 'k t -> bool -> unit

val enabled : 'k t -> bool
(** The client's axis flag, off at boot; the core never reads it. *)
