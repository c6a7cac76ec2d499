(** Concurrent XPC dispatch: a pool of N virtual runtime workers per
    user-level domain.

    The decaf driver and the driver library are multi-threaded runtimes
    (the paper's combolocks exist for exactly this reason), but a single
    simulated CPU executes one upcall's code at a time. This module
    separates the two concerns:

    - {b Slot admission} is real scheduling: at most N crossings execute
      in a user domain concurrently. Excess callers block on a wait
      queue ({!Decaf_kernel.Sched}-level suspend), except in atomic
      context, where blocking is forbidden and the pool oversubscribes
      (counted as [forced]).
    - {b Lane accounting} is the latency model: every XPC nanosecond
      charge ({!charge}) — crossing entry/exit, marshaling, object
      tracker lookups, guard checks, ring slots, combolock waits (via
      {!Decaf_kernel.Sync.Combolock.set_wait_observer}) — accumulates in
      the serving worker's lane, or in one off-lane account when the
      thread serves no crossing. Independent upcalls land on independent
      lanes, so the pool's contribution to wall-clock time is the
      busiest lane ({!overhead_ns}), which shrinks as workers are added
      while the total work stays constant. Calls that touch the same
      shared object still serialize through that object's combolock, and
      the wait shows up in the blocked worker's lane.

    Every {!Decaf_kernel.Boot.boot} drops the pools, empties the
    off-lane account and restores [workers = 1]. With that default the
    admission gate reproduces the historical "a user-level runtime
    services one XPC at a time" behaviour. *)

type pool_stats = {
  domain : Domain.t;
  workers : int;
  admissions : int;  (** upcalls admitted to the pool *)
  blocked_acquires : int;  (** admissions that waited for a free worker *)
  forced : int;  (** atomic-context admissions that oversubscribed *)
  queue_wait_ns : int;  (** virtual ns spent waiting for a worker *)
  lane_busy_ns : int array;  (** per-lane accumulated charge *)
  lane_served : int array;  (** per-lane upcalls served *)
  lane_latency : Decaf_kernel.Latency.t array;
      (** per-lane submit-to-complete timelines, admission wait included;
          merge with {!Decaf_kernel.Latency.merged} for the domain view *)
  critical_path_ns : int;  (** busiest lane: the pool's wall-clock cost *)
}

val set_workers : int -> unit
(** Set the worker-pool width for user domains (clamped to >= 1).
    An idle pool is re-created at the new width on its next admission; a
    pool with crossings in flight or admissions parked on its wait queue
    keeps serving at the old width until it drains, so in-flight slot
    and stats accounting is never stranded on an abandoned pool. Call it
    after a boot for a clean matrix point. *)

val workers : unit -> int

val with_worker : target:Domain.t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [with_worker ~target f a b] runs [f a b] on a worker of [target]'s
    pool. Identity for kernel targets. The arguments are passed, not
    captured, so admission allocates nothing: {!Channel.call} hands over
    a lane body built once, its byte count and the caller's function.
    Charges {!Decaf_kernel.Cost.t.xpc_dispatch_ns} to the chosen lane
    (and to the global clock, like every lane charge). The lane is bound
    to the current {!Decaf_kernel.Sched} thread for the duration of the
    call,
    so a crossing that suspends mid-call does not leak its lane onto
    whichever thread runs while it is blocked. Re-entrant: a nested
    crossing into the domain the current thread is already serving stays
    on its lane instead of deadlocking on its own slot. *)

val charge : int -> unit
(** [charge ns] consumes [ns] of virtual time on the global clock and
    credits it to the lane serving the current thread's crossing or,
    when no lane serves the thread, to the off-lane account. It is the
    one way an XPC cost reaches the clock: both crossing legs and their
    marshaling ({!Channel}), a missed deadline and its retry backoff,
    {!Guard} field checks, {!Objtracker} lookups and {!Ring} slot writes
    and reads. No call site decides whether its cost counts: a charge
    made outside a crossing (a kernel-side guard check, a ring slot
    written in irq context) lands off-lane and still shows in
    {!overhead_ns}. Lane time stays a subset of elapsed time, which is
    what lets {!overlap_saved_ns} credit it back. *)

val credit : int -> unit
(** [credit ns] is {!charge} for time already on the clock: the same
    account, nothing consumed. For the base cost of an {!Objtracker}
    shard lock, which the combolock consumes itself, and for combolock
    waits ({!Decaf_kernel.Sync.Combolock.set_wait_observer}). *)

val overhead_ns : unit -> int
(** XPC time on the critical path: the off-lane account plus the busiest
    lane of every pool, summed across pools. Off-lane time is serial —
    no worker overlaps it — so it counts in full at any width. Reset by
    every boot. *)

val overlap_saved_ns : unit -> int
(** Virtual time an N-worker runtime overlaps away: per pool, the total
    lane busy time minus the busiest lane, summed across pools. Every
    lane nanosecond was also consumed on the global clock (fully
    serialized, single virtual CPU), so workloads subtract this from
    their elapsed time to model independent upcalls proceeding in
    parallel. The off-lane account never enters it, so it is zero with
    one worker — the serial path's numbers are untouched. *)

val pool_stats : unit -> pool_stats list
