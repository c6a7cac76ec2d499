(* The soak experiment behind BENCH_soak.json: boot, apply the best
   parallel XPC configuration (batch + delta + 4 workers + ring, guard
   on — the same point the fleet axis of BENCH_xpc.json rides on), run
   the two-phase mixed-traffic soak, and flatten the per-phase path
   percentiles into a line-JSON trajectory the same way Xpcperf does.

   dune diffs the trajectory against the committed file; [acceptance]
   holds the gates that need no committed file: no audio deadline miss
   in the steady phase and no leak at quiescence. A deliberate
   cost-model retuning takes the new file with `dune promote` in the
   same change. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module W = Decaf_workloads

type row = {
  phase : string;
  path : string;
  samples : int;
  overflow : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

type summary = {
  duration_ns : int;  (** virtual ns per phase *)
  fleet : int;
  seed : int;
  rows : row list;
  steady_misses : int;
  churn_misses : int;
  audio_periods : int;  (** both phases *)
  packets : int;
  leaked_entries : int;
  leaked_bytes : int;
}

let default_duration_ns = 1_000_000_000
let default_fleet = 4
let default_seed = 0x50a11

let rows_of_phase (p : W.Soak.phase) =
  List.map
    (fun (s : W.Soak.path_stats) ->
      {
        phase = p.W.Soak.phase_name;
        path = s.W.Soak.path;
        samples = s.W.Soak.samples;
        overflow = s.W.Soak.overflow;
        p50_ns = s.W.Soak.p50_ns;
        p99_ns = s.W.Soak.p99_ns;
        p999_ns = s.W.Soak.p999_ns;
        max_ns = s.W.Soak.max_ns;
      })
    p.W.Soak.paths

let measure ?(duration_ns = default_duration_ns) ?(fleet = default_fleet)
    ?(seed = default_seed) () =
  Scenario.boot ();
  Xpc.Batch.set_enabled true;
  Xpc.Marshal_plan.set_delta_enabled true;
  Xpc.Dispatch.set_workers 4;
  Xpc.Guard.set_enabled true;
  Xpc.Ring.set_enabled true;
  let r = W.Soak.run ~fleet ~seed ~phase_ns:duration_ns () in
  {
    duration_ns;
    fleet;
    seed;
    rows = rows_of_phase r.W.Soak.steady @ rows_of_phase r.W.Soak.churn;
    steady_misses = r.W.Soak.steady.W.Soak.audio_misses;
    churn_misses = r.W.Soak.churn.W.Soak.audio_misses;
    audio_periods =
      r.W.Soak.steady.W.Soak.audio_periods
      + r.W.Soak.churn.W.Soak.audio_periods;
    packets = r.W.Soak.steady.W.Soak.packets + r.W.Soak.churn.W.Soak.packets;
    leaked_entries = r.W.Soak.leaked_tracker_entries;
    leaked_bytes = r.W.Soak.leaked_kmalloc_bytes;
  }

let render s =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Mixed-traffic soak (%d ms/phase, fleet=%d, seed=%#x)\n"
    (s.duration_ns / 1_000_000) s.fleet s.seed;
  add "%-8s %-14s %9s %12s %12s %12s %12s %5s\n" "Phase" "Path" "Samples"
    "p50(us)" "p99(us)" "p999(us)" "max(us)" "Ovfl";
  List.iter
    (fun r ->
      add "%-8s %-14s %9d %12.1f %12.1f %12.1f %12.1f %5d\n" r.phase r.path
        r.samples
        (float_of_int r.p50_ns /. 1e3)
        (float_of_int r.p99_ns /. 1e3)
        (float_of_int r.p999_ns /. 1e3)
        (float_of_int r.max_ns /. 1e3)
        r.overflow)
    s.rows;
  add
    "audio: %d periods, %d missed steady / %d missed churn; %d packets; \
     leaks: %d tracker entries, %d kmalloc bytes\n"
    s.audio_periods s.steady_misses s.churn_misses s.packets s.leaked_entries
    s.leaked_bytes;
  Buffer.contents buf

(* --- line JSON, printed by Jsonl like the Xpcperf trajectory --- *)

let json_row r =
  Jsonl.(
    to_string
      (Obj
         [
           ("phase", Str r.phase);
           ("path", Str r.path);
           ("samples", Int r.samples);
           ("overflow", Int r.overflow);
           ("p50_ns", Int r.p50_ns);
           ("p99_ns", Int r.p99_ns);
           ("p999_ns", Int r.p999_ns);
           ("max_ns", Int r.max_ns);
         ]))

let to_json s =
  let header =
    Jsonl.(
      to_string
        (Obj
           [
             ("bench", Str "soak");
             ("duration_ns", Int s.duration_ns);
             ("fleet", Int s.fleet);
             ("seed", Int s.seed);
             ("steady_misses", Int s.steady_misses);
             ("churn_misses", Int s.churn_misses);
             ("audio_periods", Int s.audio_periods);
             ("packets", Int s.packets);
             ("leaked_entries", Int s.leaked_entries);
             ("leaked_bytes", Int s.leaked_bytes);
           ]))
  in
  String.concat "\n" (header :: List.map json_row s.rows) ^ "\n"

let acceptance s =
  List.filter_map
    (fun (n, what) ->
      if n <> 0 then Some (Printf.sprintf "%d %s" n what) else None)
    [
      (s.steady_misses, "audio deadline misses in the fault-free phase");
      (s.leaked_entries, "object-tracker entries leaked at quiescence");
      (s.leaked_bytes, "kmalloc bytes leaked at quiescence");
    ]
