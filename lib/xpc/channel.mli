(** XPC control transfer between domains, with crossing accounting.

    An XPC pays a fixed per-crossing cost plus a per-byte marshaling
    cost; the counters feed the "User/Kernel Crossings" column of the
    paper's Table 3. Crossings into user level from the kernel must be
    able to block, so attempting one in interrupt context or under a
    spinlock raises {!Decaf_kernel.Sched.Would_block_in_atomic} — the
    rule the paper's deferral techniques (§3.1.3) exist to satisfy.

    As in the implementation described in §3.1, XPCs to and from the
    kernel are always performed by C code: a call between the kernel and
    the decaf driver implicitly traverses the driver library, paying both
    the kernel/user and the C/Java costs. *)

type stats = {
  mutable kernel_user_calls : int;
      (** call/return round trips crossing the kernel/user boundary *)
  mutable c_java_calls : int;  (** round trips crossing the C/Java boundary *)
  mutable bytes_marshaled : int;
  mutable failures : int;  (** crossings that missed their deadline *)
  mutable retries : int;  (** failed idempotent crossings retried *)
  mutable lock_acquires : int;
      (** combolock acquisitions, machine-wide (spin + semaphore paths) *)
  mutable lock_contended : int;
      (** combolock acquisitions that found the lock unavailable *)
  mutable lock_spin_to_sem : int;
      (** kernel acquisitions converted from spin to semaphore because
          user level held or was waiting for the lock *)
  mutable lock_wait_ns : int;  (** virtual ns blocked on combolocks *)
}

exception
  Xpc_failure of { boundary : string; attempts : int; context : string }
(** A crossing that exhausted its deadline (and, for idempotent calls,
    its retries). Surfaced to the caller so the recovery supervisor can
    restart the user-level runtime instead of the kernel panicking. *)

val call :
  target:Domain.t ->
  payload_bytes:int ->
  reply_bytes:int ->
  ?idempotent:bool ->
  ?context:string ->
  (unit -> 'a) ->
  'a
(** Execute [f] in [target], charging crossing and marshaling costs for a
    call carrying [payload_bytes] and returning [reply_bytes]. A call
    whose target is the current domain is a plain procedure call: free,
    and not counted.

    A crossing allocates nothing of its own: the byte counts are plain
    ints, the call's birth is an int ({!Decaf_kernel.Clock.complete_since}),
    and the worker lane gets [f] as an argument ({!Dispatch.with_worker}).
    [idempotent] (default [false]) and [context] (default ["call"])
    stay optional; a caller that passes a value it computed, rather
    than a literal, builds its [Some], so pass the option itself
    ([?idempotent]) where the value is computed.

    Crossings consult the fault plan (site ["xpc." ^ context]); a firing
    [Xpc_timeout] charges the per-call deadline and raises
    {!Xpc_failure} — except that [idempotent] calls are first retried up
    to two more times with capped exponential backoff.

    There is deliberately no [~deferrable] flag here: a call returns
    ['a] to its caller, and a deferred call by definition cannot — the
    caller has moved on before it runs. Deferrable (one-way, non-urgent)
    calls go through {!Batch.post}, whose flush crossing is issued via
    this function and therefore reuses the same timeout/retry machinery
    and fault plan. *)

val set_direct_marshaling : bool -> unit
(** The optimization §4 proposes: transfer data directly between the
    driver nucleus and the decaf driver instead of unmarshaling in C and
    re-marshaling in Java. When enabled, a kernel<->decaf call pays a
    single crossing with one per-byte marshal pass (no C/Java leg). Off
    by default, as in the paper's implementation. *)

val direct_marshaling : unit -> bool

val in_flight : Domain.t -> int
(** Crossings currently executing in [target]. A user-level runtime
    services at most {!Dispatch.workers} XPCs at a time, so the deferred
    drains of {!Batch} and {!Ring} (the {!Doorbell} core) hold off while
    this is [>= Dispatch.workers ()] — a deferred notification must not
    reach into a domain whose workers are all mid-call (it would
    retroactively update marshaled state an in-progress call already
    captured). Synchronous drains ({!Batch.doorbell}, {!Batch.drain},
    {!Ring.drain}) are not gated: their caller owns the ordering. *)

val stats : unit -> stats
(** The live counters. The [lock_*] columns are refreshed from
    {!Decaf_kernel.Sync.Combolock.totals} on each read. *)

val tracker_shards : unit -> Objtracker.stats array
(** Per-shard object-tracker counters summed over the machine's live
    trackers (see {!Objtracker.global_shard_stats}), so experiments can
    report shard-hit distribution alongside crossing counts. *)

val reset_stats : unit -> unit
(** Zero the crossing counters between two measurements. The lock
    columns keep mirroring the combolock totals, which only
    {!Decaf_kernel.Boot.boot} clears. Does {e not} touch configuration
    such as the direct-marshaling flag; every boot also restores the
    default configuration. *)

val snapshot : unit -> stats
(** A copy of the current counters (for before/after measurements). *)
