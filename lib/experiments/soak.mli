(** The mixed-traffic soak experiment: the per-phase latency-percentile
    trajectory behind [BENCH_soak.json].

    Boots the machine on the best parallel XPC configuration
    (batch + delta + 4 workers + ring, guard on), runs
    {!Decaf_workloads.Soak} — all five drivers concurrently, a
    fault-free ["steady"] phase then a fault-injected ["churn"] phase —
    and reports p50/p99/p999 per tracked event path per phase, the
    audio deadline-miss counts, and the quiescence leak ledgers. *)

type row = {
  phase : string;  (** ["steady"] or ["churn"] *)
  path : string;  (** latency-registry path, e.g. ["xpc.dispatch"] *)
  samples : int;
  overflow : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

type summary = {
  duration_ns : int;  (** virtual ns per phase *)
  fleet : int;  (** e1000 instances on the virtual switch *)
  seed : int;  (** burst/churn schedule seed *)
  rows : row list;
  steady_misses : int;  (** audio deadline misses, fault-free phase *)
  churn_misses : int;
  audio_periods : int;
  packets : int;
  leaked_entries : int;  (** object-tracker entries at quiescence *)
  leaked_bytes : int;  (** kmalloc bytes at quiescence *)
}

val default_duration_ns : int
val default_fleet : int

val measure :
  ?duration_ns:int -> ?fleet:int -> ?seed:int -> unit -> summary
(** Boot, configure, soak, and flatten the result. Deterministic for a
    fixed (duration, fleet, seed) triple. *)

val render : summary -> string
(** Percentile table plus the audio/leak summary line. *)

val to_json : summary -> string
(** One JSON object per line — a header with the run parameters and
    gate counters, then one row per (phase, path) — hand-rolled, no
    JSON library, like the BENCH_xpc.json trajectory. [decafctl soak
    --json] prints it, and dune diffs the default run against the
    committed [BENCH_soak.json]. *)

val acceptance : summary -> string list
(** The gates that hold at any scale, one complaint each: an audio
    deadline miss in the fault-free phase, an object-tracker entry or a
    kmalloc byte leaked at quiescence. *)
