(* Acceptance tests for the XPC fast path: batching+delta must pay for
   itself on the paper's heaviest workload (netperf on the E1000 decaf
   driver) without giving back throughput, and the concurrent dispatch
   engine must shorten the dispatch critical path — and therefore raise
   cost-adjusted goodput — as workers are added. *)

module E = Decaf_experiments
module Xpc = Decaf_xpc

let check_bool = Alcotest.(check bool)

let w1 = 1

let test_netperf_e1000_gain () =
  let duration_ns = 300_000_000 in
  let off =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = false;
        delta = false;
        workers = w1;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let on =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers = w1;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let fi = float_of_int in
  Alcotest.(check string) "same scenario" off.E.Xpcperf.scenario
    on.E.Xpcperf.scenario;
  check_bool
    (Printf.sprintf "crossings down >=30%% (%d -> %d)" off.E.Xpcperf.crossings
       on.E.Xpcperf.crossings)
    true
    (fi on.E.Xpcperf.crossings <= 0.7 *. fi off.E.Xpcperf.crossings);
  check_bool
    (Printf.sprintf "bytes_marshaled down >=20%% (%d -> %d)"
       off.E.Xpcperf.bytes on.E.Xpcperf.bytes)
    true
    (fi on.E.Xpcperf.bytes <= 0.8 *. fi off.E.Xpcperf.bytes);
  check_bool
    (Printf.sprintf "goodput holds (%.2f vs %.2f Mb/s)"
       (E.Xpcperf.perf off) (E.Xpcperf.perf on))
    true
    (E.Xpcperf.perf on >= 0.99 *. E.Xpcperf.perf off);
  check_bool "every deferred call was delivered" true
    (on.E.Xpcperf.posted = on.E.Xpcperf.delivered);
  check_bool "batching actually batched" true
    (on.E.Xpcperf.flushes > 0
    && on.E.Xpcperf.flushes < on.E.Xpcperf.delivered)

let test_netperf_e1000_workers () =
  let duration_ns = 300_000_000 in
  let run workers =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let s1 = run 1 in
  let s4 = run 4 in
  (* The lane accounting must show a shorter critical path with more
     workers, and the cost-adjusted goodput must strictly improve. *)
  check_bool
    (Printf.sprintf "dispatch critical path shrinks (%d -> %d ns)"
       s1.E.Xpcperf.xpc_ns s4.E.Xpcperf.xpc_ns)
    true
    (s4.E.Xpcperf.xpc_ns < s1.E.Xpcperf.xpc_ns);
  check_bool
    (Printf.sprintf "goodput strictly higher at w4 (%d -> %d milliMb/s)"
       s1.E.Xpcperf.perf_milli s4.E.Xpcperf.perf_milli)
    true
    (s4.E.Xpcperf.perf_milli > s1.E.Xpcperf.perf_milli);
  (* Sharded object tracker and combolock accounting are live and
     surfaced through the experiment's counters. *)
  check_bool "objtracker shards saw hits" true (s4.E.Xpcperf.shard_hits > 0);
  check_bool "at least one shard used" true (s4.E.Xpcperf.shards_used >= 1);
  (* The last run's whole-machine counters are still live: Channel.stats
     must report lock accounting and per-shard tracker traffic. *)
  let ch = Xpc.Channel.stats () in
  check_bool "combolock acquisitions reported" true
    (ch.Xpc.Channel.lock_acquires > 0);
  let shards = Xpc.Channel.tracker_shards () in
  check_bool "tracker is sharded" true (Array.length shards > 1);
  let hits =
    Array.fold_left (fun acc s -> acc + s.Xpc.Objtracker.hits) 0 shards
  in
  check_bool "per-shard hits reported through Channel" true (hits > 0);
  (* The dispatch pool stats expose per-lane service counts: at w4 the
     Decaf_driver pool must have spread upcalls over several lanes. *)
  let pools = Xpc.Dispatch.pool_stats () in
  let spread =
    List.exists
      (fun p ->
        Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0
          p.Xpc.Dispatch.lane_served
        > 1)
      pools
  in
  check_bool "upcalls spread across lanes" true spread

(* The fast ring cell: one e1000 send run with and without the shared
   ring under batch+delta. The ring must collapse the data-path
   crossings — each batch flush becomes at most one doorbell, for a
   >= 5x reduction — without giving back goodput or dropping slots. *)
let test_netperf_e1000_ring () =
  let duration_ns = 300_000_000 in
  let run ring =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers = w1;
        guard = true;
        ring;
        instances = 1;
      }
      ~duration_ns
  in
  let bd = run false in
  let rg = run true in
  check_bool "ring produced slot records" true (rg.E.Xpcperf.ring_produced > 0);
  check_bool
    (Printf.sprintf "doorbells >=5x fewer than flushes (%d flushes -> %d bells)"
       bd.E.Xpcperf.flushes rg.E.Xpcperf.doorbells)
    true
    (rg.E.Xpcperf.doorbells > 0
    && rg.E.Xpcperf.doorbells * 5 <= bd.E.Xpcperf.flushes);
  check_bool
    (Printf.sprintf "total crossings do not grow (%d -> %d)"
       bd.E.Xpcperf.crossings rg.E.Xpcperf.crossings)
    true
    (rg.E.Xpcperf.crossings <= bd.E.Xpcperf.crossings);
  check_bool "no ring slots lost" true (rg.E.Xpcperf.ring_drops = 0);
  check_bool
    (Printf.sprintf "goodput within 5%% (%.2f vs %.2f Mb/s)"
       (E.Xpcperf.perf bd) (E.Xpcperf.perf rg))
    true
    (E.Xpcperf.perf rg >= 0.95 *. E.Xpcperf.perf bd);
  check_bool "batch-only run rang no doorbells" true
    (bd.E.Xpcperf.doorbells = 0)

(* The --scenario/--config filters behind `bench/main.exe run`: a single
   matrix cell must be selectable by exact name. *)
let test_measure_filters () =
  check_bool "scenario names listed" true
    (List.mem "e1000-netperf-send" E.Xpcperf.scenario_names);
  check_bool "ring config listed" true
    (List.mem "batch+delta+w1+ring" (E.Xpcperf.config_names ()));
  let cell =
    E.Xpcperf.measure ~duration_ns:20_000_000
      ~scenario:"8139too-netperf-send" ~config:"batch+delta+w1" ()
  in
  match cell with
  | [ s ] ->
      Alcotest.(check string) "right scenario" "8139too-netperf-send"
        s.E.Xpcperf.scenario;
      Alcotest.(check string) "right config" "batch+delta+w1"
        (E.Xpcperf.config_name s.E.Xpcperf.config)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one cell, got %d" (List.length l))

(* A cell measures the same thing whatever ran before it in the process:
   every boot resets the address allocator the tracker shards hash and
   the cursors that pick flush workqueues. A-B-A: the fleet cell, then a
   netperf cell, then the fleet cell again. [shards_used] alone can match
   by chance, so the per-shard traffic is compared too. *)
let test_cell_ignores_history () =
  let duration_ns = 20_000_000 in
  let fleet () =
    let s =
      E.Xpcperf.measure ~duration_ns ~scenario:"e1000-fleet"
        ~config:"batch+delta+w4+ring+i16" ()
    in
    let shards =
      Array.map
        (fun (st : Xpc.Objtracker.stats) ->
          (st.Xpc.Objtracker.lookups, st.Xpc.Objtracker.hits))
        (Xpc.Channel.tracker_shards ())
    in
    (s, Array.to_list shards)
  in
  let a, a_shards = fleet () in
  ignore
    (E.Xpcperf.measure ~duration_ns ~scenario:"e1000-netperf-send"
       ~config:"batch+delta+w1" ());
  let a', a'_shards = fleet () in
  check_bool "same sample after another cell ran" true (a = a');
  Alcotest.(check (list (pair int int)))
    "same per-shard lookups and hits" a_shards a'_shards

let sample scenario batching delta workers =
  {
    E.Xpcperf.scenario;
    config =
      {
        E.Xpcperf.batching;
        delta;
        workers;
        guard = workers < 4;
        ring = workers >= 4;
        instances = 1;
      };
    crossings = 123;
    c_java = 45;
    bytes = 6789;
    posted = 10;
    delivered = 10;
    flushes = 3;
    doorbells = 2;
    ring_produced = 64;
    ring_drops = 1;
    xpc_ns = 250_000;
    lock_contended = 7;
    lock_wait_ns = 12_500;
    shard_hits = 90;
    shards_used = 5;
    perf_milli = 987_654;
    perf_unit = "Mb/s";
    fair_min_milli = 0;
    fair_mean_milli = 0;
    fair_max_milli = 0;
  }

let test_json_roundtrip () =
  let samples =
    [
      sample "e1000-netperf-send" false false 1;
      sample "psmouse-move" true true 4;
    ]
  in
  let duration_ns, parsed =
    E.Xpcperf.of_json (E.Xpcperf.to_json ~duration_ns:42_000_000 samples)
  in
  Alcotest.(check (option int)) "duration survives" (Some 42_000_000)
    duration_ns;
  check_bool "samples survive verbatim" true (parsed = samples)

(* A baseline line missing a key is rejected, never read with a
   default: a defaulted perf_milli of 0 used to switch that cell's perf
   gate off. *)
let test_json_missing_key_rejected () =
  let text =
    E.Xpcperf.to_json ~duration_ns:300_000_000
      [ sample "e1000-netperf-send" false false 1 ]
  in
  Alcotest.check_raises "line 2 names the missing key"
    (E.Jsonl.Missing_key { line = 2; key = "perf_milli" })
    (fun () ->
      ignore
        (E.Xpcperf.of_json
           (Testutil.replace text ~needle:"\"perf_milli\":987654,"
              ~replacement:"")))

(* The committed soak trajectory: the same 5% p99 diff that runs as the
   @soak-smoke alias, exercised here so the two bench regression gates
   live side by side. An intentional cost-model retuning regenerates
   the file with `make soak-json` in the same change. *)
let test_soak_trajectory_gate () =
  let candidates =
    [
      "BENCH_soak.json";
      "../BENCH_soak.json";
      "../../BENCH_soak.json";
      Filename.concat (Filename.dirname Sys.executable_name) "../BENCH_soak.json";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | None -> Alcotest.fail "BENCH_soak.json not found relative to the test cwd"
  | Some path ->
      check_bool "soak p99/deadline/leak gates hold against the committed file"
        true
        (E.Soak.check ~path ())

let () =
  Alcotest.run "xpcperf"
    [
      ( "acceptance",
        [
          Alcotest.test_case "netperf e1000 batching+delta pays" `Quick
            test_netperf_e1000_gain;
          Alcotest.test_case "netperf e1000 scales with workers" `Quick
            test_netperf_e1000_workers;
          Alcotest.test_case "netperf e1000 ring collapses crossings" `Quick
            test_netperf_e1000_ring;
          Alcotest.test_case "measure filters select one cell" `Quick
            test_measure_filters;
          Alcotest.test_case "a cell ignores what ran before it" `Quick
            test_cell_ignores_history;
          Alcotest.test_case "trajectory json roundtrip" `Quick
            test_json_roundtrip;
          Alcotest.test_case "a line missing perf_milli is rejected" `Quick
            test_json_missing_key_rejected;
          Alcotest.test_case "soak trajectory gate holds" `Quick
            test_soak_trajectory_gate;
        ] );
    ]
