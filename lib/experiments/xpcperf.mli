(** The concurrent-XPC / batched-XPC / delta-marshaling experiment: the
    crossing, byte and virtual-time trajectory behind [BENCH_xpc.json].

    Five single-instance decaf-build scenarios (e1000 netperf send and
    recv, 8139too netperf send, psmouse move-and-click, ens1371 mpg123)
    are each run under combinations of {!Decaf_xpc.Batch} batching,
    {!Decaf_xpc.Marshal_plan} delta marshaling and the
    {!Decaf_xpc.Dispatch} worker count. Each run records the
    whole-lifetime (insmod through rmmod) {!Decaf_xpc.Channel.snapshot}
    counters, the batch-queue statistics, the dispatch-lane critical
    path, combolock contention, object-tracker shard traffic and the
    workload's own cost-adjusted figure of merit, so the optimizations
    are only credited when throughput holds.

    A sixth scenario, [e1000-fleet], sweeps the instance axis instead:
    1, 16, 64 and 256 e1000 bindings of one module, driven concurrently
    by {!Decaf_workloads.Vswitch} on the best parallel configuration,
    reporting aggregate goodput and per-instance fairness. *)

type config = {
  batching : bool;
  delta : bool;
  workers : int;
  guard : bool;
  ring : bool;
      (** route high-rate notify paths through the {!Decaf_xpc.Ring}
          shared-slot ring (doorbell crossings only) instead of posting
          each event through {!Decaf_xpc.Batch} *)
  instances : int;
      (** concurrent device bindings of the driver module (1 everywhere
          except the fleet scenario) *)
}

val config_name : config -> string
(** E.g. ["batch+delta+w4"]; guard-off points get a ["+noguard"]
    suffix (guard on is the default and unmarked); ring points a
    ["+ring"] suffix; multi-instance points a ["+iN"] suffix. *)

type sample = {
  scenario : string;
  config : config;
  crossings : int;  (** kernel/user round trips over the whole run *)
  c_java : int;
  bytes : int;  (** bytes marshaled across all boundaries *)
  posted : int;  (** deferred calls enqueued via {!Decaf_xpc.Batch} *)
  delivered : int;
  flushes : int;  (** batched flush crossings *)
  doorbells : int;  (** ring doorbell crossings (0 with the ring off) *)
  ring_produced : int;  (** slot records written into shared rings *)
  ring_drops : int;  (** ring slots lost to overflow or teardown *)
  xpc_ns : int;
      (** whole-lifetime {!Decaf_xpc.Dispatch.overhead_ns}: every XPC
          charge on the critical path, the longest lane of each pool
          plus the off-lane account *)
  lock_contended : int;  (** combolock contended acquisitions *)
  lock_wait_ns : int;  (** virtual ns spent waiting on combolocks *)
  shard_hits : int;  (** object-tracker hits summed over shards *)
  shards_used : int;  (** shards that saw at least one lookup *)
  perf_milli : int;  (** workload figure of merit, fixed-point x1000 *)
  perf_unit : string;
  fair_min_milli : int;
      (** fleet scenario only: slowest instance's goodput, milli-Mb/s
          (0 elsewhere) *)
  fair_mean_milli : int;
  fair_max_milli : int;  (** fastest instance; max/min is the spread *)
}

val perf : sample -> float

val default_duration_ns : int

(** {2 Single scenarios} — each boots the machine, applies [config],
    loads the decaf build, runs the workload, drains the batch queues
    and unloads. Must not be called from inside a scheduler thread.
    The nets report goodput (Mb/s after dispatch overhead), psmouse
    its delivered event rate (ev/s), ens1371 its realtime factor. *)

val e1000_net : [ `Send | `Recv ] -> config -> duration_ns:int -> sample

val scenario_names : string list
(** The six scenario names, matrix order. *)

val config_names : unit -> string list
(** [config_name] of every measured configuration, deduplicated. *)

val measure :
  ?duration_ns:int -> ?scenario:string -> ?config:string -> unit -> sample list
(** The matrix, 46 cells. The three NIC scenarios run eleven
    single-instance configurations, in file order: the four historical
    serial points (nobatch+full, batch+full, nobatch+delta, batch+delta,
    all at [workers = 1]), then batch+delta at 2 and the nobatch+full /
    batch+delta pair at 4 workers — all with boundary validation on —
    then the guard axis: batch+delta at 1 and 4 workers with
    {!Decaf_xpc.Guard} per-field validation off, which prices the
    kernel-side checks in [xpc_ns] — and finally the ring axis:
    batch+delta at 1 and 4 workers with the shared ring carrying the
    notify traffic. psmouse (stretched to at least 2 s so the mouse
    produces traffic) and ens1371 cross no tracked structure, validated
    field or ring, so their delta, guard and ring points would repeat a
    sibling field for field: they run the batching and worker axes
    alone (five cells and four, ens1371 without its two-worker point,
    which equals its four-worker one). [e1000-fleet] runs
    batch+delta+w4+ring at 1, 16, 64 and 256 instances. [?scenario] and
    [?config] restrict the run to matching rows/columns (exact match
    against {!scenario_names} / {!config_names}), so a single matrix
    cell can be reproduced locally; unknown names simply select
    nothing. *)

val render : sample list -> string
(** Per-sample table plus reduction summaries per scenario:
    batch+delta vs nobatch+full (serial), 4 workers vs 1 under
    batch+delta, guard pricing (the checks' [xpc_ns] at 1 and 4
    workers), ring vs batch+delta (flushes collapsing into doorbells),
    and the fleet axis (aggregate goodput plus fairness spread per
    instance count). A summary lists the scenarios that measured both
    of its cells. *)

val to_json : duration_ns:int -> sample list -> string
(** One JSON object per line (header line carries [duration_ns]);
    parseable by {!of_json} without a JSON library. *)

val of_json : string -> int option * sample list
(** The header's [duration_ns] and the samples. Every key is required:
    a line missing one (an empty file misses its header) raises
    {!Jsonl.Missing_key}. *)

val write_json : ?duration_ns:int -> path:string -> unit -> sample list
(** Measure and write the trajectory file; returns the samples. *)

val check : path:string -> unit -> bool
(** Re-measure at the committed file's duration and compare: fails
    (returns [false], printing why) if any committed (scenario, config)
    point's crossings or bytes regressed by more than 10 %, its
    [perf_milli] dropped by more than 5 %, or it disappeared. Files with
    the fleet axis additionally gate fleet scaling: the fresh
    64-instance aggregate must be at least 8x the fresh single-instance
    cell, with a fairness spread (max/min) of at most 2x. *)
