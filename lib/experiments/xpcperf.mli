(** The concurrent-XPC / batched-XPC / delta-marshaling experiment: the
    crossing, byte and virtual-time trajectory behind [BENCH_xpc.json].

    Five single-instance decaf-build scenarios (e1000 netperf send and
    recv, 8139too netperf send, psmouse move-and-click, ens1371 mpg123)
    are each run under combinations of {!Decaf_xpc.Batch} batching,
    {!Decaf_xpc.Marshal_plan} delta marshaling and the
    {!Decaf_xpc.Dispatch} worker count, and under the native build at
    the serial point; with three more scenarios, those pairs are Table 3
    ({!Table3.render}). Each run records the whole-lifetime (insmod
    through rmmod) {!Decaf_xpc.Channel.snapshot} counters, the
    batch-queue statistics, the dispatch-lane critical path, combolock
    contention, object-tracker shard traffic, the bring-up's latency and
    crossings, and the workload's CPU and own cost-adjusted figure of
    merit, so the optimizations are only credited when throughput holds.

    A last scenario, [e1000-fleet], sweeps the instance axis instead:
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
  build : Decaf_drivers.Driver_env.mode;  (** [Native] only in {!native} *)
}

val serial : config
(** The unoptimized serial point, nobatch+full+w1, decaf build. *)

val native : config
(** [serial] under the native build. *)

val config_name : config -> string
(** E.g. ["batch+delta+w4"]; guard-off points get a ["+noguard"]
    suffix (guard on is the default and unmarked); ring points a
    ["+ring"] suffix; multi-instance points a ["+iN"] suffix; a build
    other than decaf its name (["nobatch+full+w1+native"]). *)

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
  init_ns : int;
      (** virtual time from just before the insmod (the fleet: the first
          bind) until the last interface is up *)
  init_crossings : int;  (** kernel/user crossings at that moment *)
  cpu_milli : int;
      (** the workload's CPU utilization, fixed-point x1000 (the fleet:
          over the {!Decaf_workloads.Vswitch} run) *)
}

val perf : sample -> float

val ratio : sample -> sample -> float
(** [ratio x y]: [y]'s perf over [x]'s, 1 when [x]'s is 0. *)

val native_twins : sample list -> (sample * sample) list
(** Each {!serial} cell, in list order, paired with its scenario's
    {!native} cell, where both were measured. *)

val default_duration_ns : int

val scenario_names : string list
(** The nine scenario names, matrix order. *)

val config_names : unit -> string list
(** [config_name] of every measured configuration, deduplicated. *)

val measure :
  ?duration_ns:int -> ?scenario:string -> ?config:string -> unit -> sample list
(** The matrix, 57 cells, each on a fresh boot (so never call it from a
    scheduler thread). e1000 send and recv and 8139too send run eleven
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
    which equals its four-worker one). Each of these five ends with its
    {!native} twin; [e1000-netperf-udp-1B] (1-byte messages),
    [8139too-netperf-recv] and [uhci-hcd-tar] (64 KB files sized to the
    run) run only {!serial} and its twin. [e1000-fleet] runs
    batch+delta+w4+ring at 1, 16, 64 and 256 instances. Perf is goodput
    (Mb/s or kb/s, after dispatch overhead), psmouse's event rate (ev/s)
    or ens1371's realtime factor. [?scenario] and [?config] restrict the
    run to matching rows/columns (exact match against {!scenario_names}
    / {!config_names}), so a single matrix cell can be reproduced
    locally; unknown names, or a pair the matrix does not measure,
    select nothing. *)

val render : sample list -> string
(** A per-sample table, its Config column as wide as the longest name
    it prints, plus reduction summaries per scenario:
    batch+delta vs nobatch+full (serial), 4 workers vs 1 under
    batch+delta, guard pricing (the checks' [xpc_ns] at 1 and 4
    workers), ring vs batch+delta (flushes collapsing into doorbells),
    and the fleet axis (aggregate goodput plus fairness spread per
    instance count). A summary lists the scenarios that measured both
    of its cells, and is left out when none did. *)

val to_json : duration_ns:int -> sample list -> string
(** One JSON object per line, the header line carrying [duration_ns]:
    [decafctl xpcperf --json] prints it, and dune diffs the full matrix
    against the committed [BENCH_xpc.json] ([dune promote] takes a
    deliberate change). *)

val acceptance : sample list -> string list
(** The gates that compare the matrix with itself, one complaint each:
    the [e1000-fleet] 64-instance aggregate below 8x the single
    instance's, a fleet cell whose fairness spread (max/min) exceeds
    2x, two cells of a scenario equal in every measured field, and a
    native cell with any crossing, C/Java call, byte, post, doorbell or
    [xpc_ns]. Table 3's, for each of {!native_twins}: decaf perf not
    within 1% of native, decaf init not over 2x native, init crossings
    not >= 3 decaf and 0 native, CPU 2 points or more apart. A gate
    whose cells are not in the list passes. *)
