(* The repository benchmark.

     perfbench --workload <fleet|soak|lifecycle> --seed <n> --seconds <n>
               --trace <0|1>
     perfbench --self-test [BENCHMARK.json]

   An untraced run (--trace 0) repeats one iteration of the workload,
   each in its own child process (see Child), until --seconds of host
   time are used, checks every iteration, and prints the end-to-end
   metrics: host numbers as medians over the iterations, virtual-time
   numbers from the simulation, which is deterministic for a seed (the
   digest proves every iteration agrees). A traced run (--trace 1) makes
   one untraced and one traced iteration, checks that both simulate the
   same thing, times the layer micro costs, writes the spans as Chrome
   trace JSON under perfbench/_out/, and prints the per-layer metrics.
   The last line of standard output is always one JSON object: correct,
   attempted, failed, metrics. *)

module K = Decaf_kernel

let workloads = [ "fleet"; "soak"; "lifecycle" ]
let run_flags = [ "--workload"; "--seed"; "--seconds"; "--trace" ]
let flags = run_flags @ [ "--self-test"; "--help" ]

(* --- one iteration -------------------------------------------------- *)

type scale = Full | Tiny

let iteration ~workload ~seed ~scale =
  let m = Meter.create () in
  let full = scale = Full in
  (try
     match workload with
     | "fleet" ->
         Fleet.run m
           ~ports:(if full then 256 else 4)
           ~duration_ns:(if full then 100_000_000 else 5_000_000)
     | "soak" ->
         Soak.run m ~seed
           ~fleet:(if full then 4 else 2)
           ~phase_ns:(if full then 3_000_000_000 else 150_000_000)
           ~stream_ns:(if full then 10_000_000 else 2_000_000)
     | _ -> Lifecycle.run m ~seed ~boots:(if full then 600 else 10) ~ops_per_boot:50
   with e -> Meter.violation m "%s raised %s" workload (Printexc.to_string e));
  m

let path m p = List.assoc_opt p m.Meter.paths
let p99_us m p = match path m p with Some s -> float_of_int s.Layers.p99_ns /. 1e3 | None -> 0.
let p50_us m p = match path m p with Some s -> float_of_int s.Layers.p50_ns /. 1e3 | None -> 0.
let count m k = Option.value ~default:0 (List.assoc_opt k m.Meter.counts)
let us h p = float_of_int (K.Latency.percentile h p) /. 1e3

(* A digest of every simulated count and virtual-time result of an
   iteration: equal digests mean the same simulation. *)
let digest m =
  let f x = Printf.sprintf "%h" x in
  let items =
    Layers.digest_items m.Meter.layers
    @ List.map (fun (k, v) -> (k, string_of_int v)) m.Meter.counts
    @ List.concat_map
        (fun (p, s) ->
          [
            (p ^ ".samples", string_of_int s.Layers.samples);
            (p ^ ".p50", string_of_int s.Layers.p50_ns);
            (p ^ ".p99", string_of_int s.Layers.p99_ns);
          ])
        m.Meter.paths
    @ [
        ("goodput", f m.Meter.goodput_mbps);
        ("cpu_util", f m.Meter.cpu_util);
        ("ports", String.concat "," (List.map f m.Meter.port_mbps));
        ("ops",
          String.concat ","
            (List.sort compare
               (Hashtbl.fold
                  (fun kind k acc ->
                    Printf.sprintf "%s:%d:%d:%d" kind (K.Latency.count k.Meter.virt)
                      (K.Latency.sum_ns k.Meter.virt) (K.Latency.max_ns k.Meter.virt)
                    :: acc)
                  m.Meter.ops [])));
        ("attempted", string_of_int m.Meter.attempted);
        ("failed", string_of_int m.Meter.failed);
        ("violations", string_of_int (List.length m.Meter.violations));
      ]
  in
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun (k, v) -> k ^ "=" ^ v) items)))

(* --- metrics -------------------------------------------------------- *)

type metric = { name : string; unit_ : string; value : float }

let end_to_end =
  [
    ("host_s", "s"); ("setup_s", "s"); ("alloc_mwords", "Mwords");
    ("peak_heap_mb", "MB"); ("goodput_mbps", "Mb/s"); ("cpu_util", "fraction");
    ("fair_spread", "ratio"); ("tx_p99_us", "virt_us"); ("ring_p50_us", "virt_us");
    ("op_p50_us", "virt_us"); ("op_p99_us", "virt_us");
  ]

(* The virtual-time end-to-end metrics: simulated results, identical
   for every iteration of a run. *)
let virtual_metrics m =
  [
    ("goodput_mbps", m.Meter.goodput_mbps);
    ("cpu_util", m.Meter.cpu_util);
    ("fair_spread", Meter.fair_spread m);
    ("tx_p99_us", p99_us m "net.tx");
    ("ring_p50_us", p50_us m "xpc.ring");
    ("op_p50_us", us m.Meter.all_ops 0.50);
    ("op_p99_us", us m.Meter.all_ops 0.99);
  ]

(* What an untraced iteration reports from its process. *)
type summary = {
  digest : string;
  run_s : float;
  setup_s : float list;
  alloc_mwords : float;
  peak_heap_mb : float;
  virtual_ : (string * float) list;
  attempted : int;
  failed : int;
  violations : string list;
}

let summarize m =
  {
    digest = digest m;
    run_s = Host.seconds m.Meter.run_ns;
    setup_s = List.map Host.seconds m.Meter.setup_ns;
    alloc_mwords = Host.allocated m.Meter.gc0 m.Meter.gc1 /. 1e6;
    peak_heap_mb = Host.peak_heap_mb ();
    virtual_ = virtual_metrics m;
    attempted = m.Meter.attempted;
    failed = m.Meter.failed;
    violations = m.Meter.violations;
  }

let end_to_end_values ss =
  let med f = Host.median (List.map f ss) in
  [
    ("host_s", med (fun s -> s.run_s));
    ("setup_s", Host.median (List.concat_map (fun s -> s.setup_s) ss));
    ("alloc_mwords", med (fun s -> s.alloc_mwords));
    ("peak_heap_mb", med (fun s -> s.peak_heap_mb));
  ]
  @ (List.hd ss).virtual_

let op_kinds =
  [ "bind"; "insmod"; "rmmod"; "suspend"; "resume"; "remove"; "replug"; "open"; "stop"; "burst" ]

let micro_names =
  [
    "clock.insert_fire_ns"; "latency.observe_ns"; "ktrace.note_ns"; "ring.produce_drain_ns";
    "guard.check_ns"; "objtracker.resolve_ns"; "xdr.marshal_e1000_ns"; "channel.call_ns";
    "combolock.fast_ns"; "sched.switch_ns";
  ]

let ktrace_classes = [ "combolock"; "irq"; "ring"; "xpc"; "tracker_shard" ]

(* What the traced iteration reports from its process. *)
type traced_summary = {
  t_digest : string;
  t_run_ns : int;
  t_violations : string list;
  t_attempted : int;
  t_failed : int;
  steps : int * float * float;  (** scheduler steps, thread s, clock s *)
  ktrace : (string * int) list;  (** Ktrace notes per object class *)
  spans : int;
  file : string option;
}

let trace_dir = Filename.concat "perfbench" "_out"

let traced_iteration ~workload ~seed ~scale ~write =
  Spans.enable ();
  let m = Fun.protect ~finally:Spans.disable (fun () -> iteration ~workload ~seed ~scale) in
  let d = digest m in
  let file =
    if not write then None
    else begin
      if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
      let path = Filename.concat trace_dir (workload ^ ".trace.json") in
      Spans.write_chrome ~path
        ~meta:[ ("workload", workload); ("seed", string_of_int seed); ("digest", d) ];
      Some path
    end
  in
  {
    t_digest = d;
    t_run_ns = m.Meter.run_ns;
    t_violations = m.Meter.violations;
    t_attempted = m.Meter.attempted;
    t_failed = m.Meter.failed;
    steps = Spans.step_seconds ();
    ktrace =
      ("all", Spans.notes_total ()) :: List.map (fun k -> (k, Spans.note_count k)) ktrace_classes;
    spans = !Spans.count;
    file;
  }

(* [u] is the untraced iteration, [t] the traced one. *)
let per_layer_values ~u ~t ~micro =
  let l = u.Meter.layers in
  let fi = float_of_int in
  let ratio a b = if b = 0 then 0. else fi a /. fi b in
  let run_s = Host.seconds u.Meter.run_ns in
  let steps, thread_s, clock_s = t.steps in
  let notes k = Option.value ~default:0 (List.assoc_opt k t.ktrace) in
  let c name unit_ v = (name, unit_, fi v) in
  let vus name ns = (name, "virt_us", fi ns /. 1e3) in
  let observations =
    Hashtbl.fold (fun _ h acc -> acc + K.Latency.count h) l.Layers.paths 0
    + count u "soak.path_samples"
  in
  let kind k =
    let host, virt =
      match Hashtbl.find_opt u.Meter.ops k with
      | Some o -> (o.Meter.host, o.Meter.virt)
      | None -> (K.Latency.create (), K.Latency.create ())
    in
    [
      c ("core.ops." ^ k) "count" (K.Latency.count virt);
      ("core.host_us." ^ k ^ ".p50", "us", us host 0.50);
      ("core.host_us." ^ k ^ ".p99", "us", us host 0.99);
      ("core.virt_us." ^ k ^ ".p50", "virt_us", us virt 0.50);
      ("core.virt_us." ^ k ^ ".p99", "virt_us", us virt 0.99);
    ]
  in
  [
    c "clock.events" "count" l.Layers.clock_events;
    ("clock.host_ns_per_event", "ns", fi u.Meter.run_ns /. fi (max 1 l.Layers.clock_events));
    c "sched.steps" "count" steps;
    ("sched.thread_s", "s", thread_s);
    ("sched.clock_s", "s", clock_s);
    c "irq.delivered" "count" l.Layers.irq_delivered;
    ("irq.p99_us", "virt_us", p99_us u "irq");
    c "latency.observations" "count" observations;
    c "ktrace.notes" "count" (notes "all");
  ]
  @ List.map (fun k -> c ("ktrace." ^ k) "count" (notes k)) ktrace_classes
  @ [
      c "sync.lock_acquires" "count" l.Layers.lock_acquires;
      c "sync.lock_contended" "count" l.Layers.lock_contended;
      vus "sync.lock_wait_us" l.Layers.lock_wait_ns;
      ("boot.host_ms", "ms",
        Host.median (List.map (fun ns -> fi ns /. 1e6) u.Meter.boot_ns));
      c "hw.frames" "count" (count u "vswitch.packets" + count u "soak.frames");
      c "xpc.crossings" "count" l.Layers.crossings;
      c "xpc.c_java" "count" l.Layers.c_java;
      c "xpc.bytes" "count" l.Layers.bytes;
      c "xpc.failures" "count" l.Layers.failures;
      c "xpc.retries" "count" l.Layers.retries;
      ("xpc.host_us_per_crossing", "us", run_s *. 1e6 /. fi (max 1 l.Layers.crossings));
      ("xpc.call_p99_us", "virt_us", p99_us u "xpc.call");
      ("xpc.dirty_p99_us", "virt_us", p99_us u "xpc.dirty");
      c "dispatch.admissions" "count" l.Layers.admissions;
      c "dispatch.blocked" "count" l.Layers.blocked;
      vus "dispatch.queue_wait_us" l.Layers.queue_wait_ns;
      vus "dispatch.critical_path_us" l.Layers.critical_path_ns;
      vus "dispatch.p99_us" (K.Latency.percentile l.Layers.dispatch_latency 0.99);
      c "batch.posted" "count" l.Layers.posted;
      c "batch.delivered" "count" l.Layers.delivered;
      c "batch.flushes" "count" l.Layers.flushes;
      c "batch.requeues" "count" l.Layers.batch_requeues;
      c "batch.dropped" "count" l.Layers.batch_dropped;
      ("batch.p50_us", "virt_us", p50_us u "xpc.batch");
      c "ring.produced" "count" l.Layers.produced;
      c "ring.consumed" "count" l.Layers.consumed;
      c "ring.doorbells" "count" l.Layers.doorbells;
      ("ring.records_per_doorbell", "ratio", ratio l.Layers.consumed l.Layers.doorbells);
      c "ring.drops" "count" (l.Layers.ring_overflow + l.Layers.ring_discarded);
      c "ring.requeues" "count" l.Layers.ring_requeues;
      c "ring.high_water" "count" l.Layers.ring_high_water;
      c "guard.checks" "count" l.Layers.guard_checks;
      c "guard.rejected" "count" l.Layers.guard_rejected;
      c "boundary.dropped" "count" l.Layers.boundary_dropped;
      c "objtracker.lookups" "count" l.Layers.lookups;
      ("objtracker.hit_ratio", "ratio", ratio l.Layers.hits l.Layers.lookups);
      c "objtracker.registrations" "count" l.Layers.registrations;
      c "objtracker.shards_used" "count" l.Layers.shards_used;
      c "core.restarts" "count" l.Layers.restarts;
    ]
  @ List.concat_map kind op_kinds
  @ List.map
      (fun k -> c k "count" (count u k))
      [ "vswitch.packets"; "soak.audio_periods"; "soak.audio_misses"; "soak.input_events";
        "soak.usb_bytes" ]
  @ [
      c "gc.minor" "count" (u.Meter.gc1.Host.minor_collections - u.Meter.gc0.Host.minor_collections);
      c "gc.major" "count" (u.Meter.gc1.Host.major_collections - u.Meter.gc0.Host.major_collections);
      ("gc.promoted_mwords", "Mwords",
        (u.Meter.gc1.Host.promoted_words -. u.Meter.gc0.Host.promoted_words) /. 1e6);
    ]
  @ List.map (fun (k, v) -> (k, "ns", v)) micro
  @ [
      ("trace.overhead", "fraction", (fi t.t_run_ns /. fi (max 1 u.Meter.run_ns)) -. 1.);
      c "trace.spans" "count" t.spans;
    ]

(* --- runs ----------------------------------------------------------- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

let nonzero metrics =
  List.filter_map
    (fun m ->
      if Float.is_finite m.value && m.value <> 0. then None
      else Some (Printf.sprintf "metric %s is %g" m.name m.value))
    metrics

let untraced ~workload ~seed ~seconds ~scale =
  let t0 = Host.now_ns () in
  let budget = seconds * 1_000_000_000 in
  (* stop before an iteration would overrun the budget, after at least
     three, and well inside the 180 s a run may take *)
  let rec loop acc errors n =
    let acc, errors =
      match Child.run (fun () -> summarize (iteration ~workload ~seed ~scale)) with
      | Ok s -> (s :: acc, errors)
      | Error e -> (acc, e :: errors)
    in
    let n = n + 1 in
    let used = Host.now_ns () - t0 in
    if (n >= 3 && used + (used / n) > budget) || used > 120_000_000_000 || errors <> []
    then (List.rev acc, errors)
    else loop acc errors n
  in
  match loop [] [] 0 with
  | [], errors ->
      {
        correct = false;
        attempted = 1;
        failed = 1;
        metrics = List.map (fun (name, unit_) -> { name; unit_; value = 0. }) end_to_end;
        notes = List.map (fun e -> "perfbench: FAILED " ^ e) errors;
      }
  | ss, errors ->
  let digests = List.sort_uniq compare (List.map (fun s -> s.digest) ss) in
  let violations = List.sort_uniq compare (List.concat_map (fun s -> s.violations) ss) in
  let metrics =
    List.map2
      (fun (name, unit_) (_, value) -> { name; unit_; value })
      end_to_end (end_to_end_values ss)
  in
  let problems =
    errors @ violations
    @ (if List.length digests > 1 then
         [ Printf.sprintf "%d iterations gave %d different digests" (List.length ss)
             (List.length digests) ]
       else [])
    @ nonzero metrics
  in
  {
    correct = problems = [];
    attempted = List.fold_left (fun a (s : summary) -> a + s.attempted) 0 ss;
    failed = List.fold_left (fun a (s : summary) -> a + s.failed) 0 ss;
    metrics;
    notes =
      Printf.sprintf "perfbench: workload=%s seed=%d iterations=%d digest=%s" workload seed
        (List.length ss) (String.concat "," digests)
      :: Printf.sprintf "perfbench: host_s of each iteration: %s"
           (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.run_s) ss))
      :: List.map (fun p -> "perfbench: FAILED " ^ p) problems;
  }

let traced ~workload ~seed ~scale ~write =
  match
    ( Child.run (fun () -> iteration ~workload ~seed ~scale),
      Child.run (fun () -> traced_iteration ~workload ~seed ~scale ~write) )
  with
  | Error e, _ | _, Error e ->
      {
        correct = false;
        attempted = 1;
        failed = 1;
        metrics = [];
        notes = [ "perfbench: FAILED " ^ e ];
      }
  | Ok u, Ok t ->
      let du = digest u in
      let micro =
        if scale = Full then Micro.all () else List.map (fun k -> (k, 0.)) micro_names
      in
      let metrics =
        List.map
          (fun (name, unit_, value) -> { name; unit_; value })
          (per_layer_values ~u ~t ~micro)
      in
      let problems =
        List.sort_uniq compare (u.Meter.violations @ t.t_violations)
        @ (if du <> t.t_digest then
             [ "traced digest " ^ t.t_digest ^ " <> untraced digest " ^ du ]
           else [])
        @ List.filter_map
            (fun m ->
              if Float.is_finite m.value then None
              else Some (Printf.sprintf "metric %s is %g" m.name m.value))
            metrics
      in
      {
        correct = problems = [];
        attempted = u.Meter.attempted + t.t_attempted;
        failed = u.Meter.failed + t.t_failed;
        metrics;
        notes =
          [
            Printf.sprintf "perfbench: workload=%s seed=%d traced digest=%s untraced digest=%s"
              workload seed t.t_digest du;
            Printf.sprintf "perfbench: host %.6f s untraced, %.6f s traced; %d spans%s"
              (Host.seconds u.Meter.run_ns) (Host.seconds t.t_run_ns) t.spans
              (match t.file with Some p -> " written to " ^ p | None -> "");
          ]
          @ List.map (fun p -> "perfbench: FAILED " ^ p) problems;
      }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json o =
  let b = Buffer.create 4096 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    o.correct o.attempted o.failed;
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_string b ", ";
      Printf.bprintf b "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
        (json_number (if Float.is_finite m.value then m.value else 0.))
        m.unit_)
    o.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

(* --- self-test ------------------------------------------------------ *)

(* The metric names a section of BENCHMARK.json declares, in order: the
   "name" strings between the section key and the closing bracket. *)
let declared text section =
  let key = "\"" ^ section ^ "\"" in
  let find_from i s =
    let n = String.length s in
    let rec go i =
      if i + n > String.length text then None
      else if String.sub text i n = s then Some i
      else go (i + 1)
    in
    go i
  in
  match find_from 0 key with
  | None -> []
  | Some start ->
      let stop = Option.value ~default:(String.length text) (String.index_from_opt text start ']') in
      let rec names i acc =
        match find_from i "\"name\"" with
        | Some j when j < stop ->
            let q1 = String.index_from text (j + 6) '"' in
            let q2 = String.index_from text (q1 + 1) '"' in
            names q2 (String.sub text (q1 + 1) (q2 - q1 - 1) :: acc)
        | _ -> List.rev acc
      in
      names start []

let self_test benchmark_json =
  let failures = ref [] in
  let expect ok fmt = Printf.ksprintf (fun s -> if not ok then failures := s :: !failures) fmt in
  let names o = List.map (fun m -> m.name) o.metrics in
  let e2e = List.map fst end_to_end in
  let layer_names = ref [] in
  List.iter
    (fun workload ->
      let o = untraced ~workload ~seed:1 ~seconds:0 ~scale:Tiny in
      expect o.correct "%s: tiny untraced run failed its checks: %s" workload
        (String.concat "; " o.notes);
      expect (names o = e2e) "%s: untraced run does not print every end-to-end metric" workload;
      let t = traced ~workload ~seed:1 ~scale:Tiny ~write:false in
      expect t.correct "%s: tiny traced run failed its checks: %s" workload
        (String.concat "; " t.notes);
      layer_names := names t;
      List.iter (fun n -> expect (List.mem n (names t)) "%s: no %s" workload n) micro_names)
    workloads;
  (* same seed, same simulation; another seed reaches the inputs *)
  List.iter
    (fun workload ->
      let d seed =
        match Child.run (fun () -> digest (iteration ~workload ~seed ~scale:Tiny)) with
        | Ok d -> d
        | Error e -> e
      in
      let a = d 1 in
      expect (a = d 1) "%s: same seed gave different digests" workload;
      expect (a <> d 2) "%s: seeds 1 and 2 gave the same digest" workload)
    [ "soak"; "lifecycle" ];
  (* seed-and-catch: one tracker entry leaked through the public
     Objtracker API must fail the run *)
  Machine.leak_on_bind := true;
  let leaky =
    Fun.protect
      ~finally:(fun () -> Machine.leak_on_bind := false)
      (fun () -> untraced ~workload:"fleet" ~seed:1 ~seconds:0 ~scale:Tiny)
  in
  expect
    ((not leaky.correct)
    && List.exists (fun n -> Spans.contains n "tracker entries leaked") leaky.notes)
    "a leaked tracker entry was not reported";
  (match Option.map (fun p -> (p, In_channel.with_open_bin p In_channel.input_all)) benchmark_json with
  | exception Sys_error e -> expect false "%s" e
  | Some (path, text) ->
      expect (declared text "end_to_end" = e2e)
        "%s: end_to_end names differ from the ones the benchmark prints" path;
      expect (declared text "per_layer" = !layer_names)
        "%s: per_layer names differ from the ones the benchmark prints" path;
      expect (declared text "workloads" = workloads)
        "%s: workload names differ from the benchmark's" path
  | None -> ());
  match !failures with
  | [] -> 0
  | fs ->
      List.iter (fun f -> prerr_endline ("perfbench self-test: " ^ f)) (List.rev fs);
      1

(* --- command line --------------------------------------------------- *)

exception Usage of string

let usage () =
  Printf.sprintf
    "usage: perfbench --workload <%s> --seed <n> --seconds <n> --trace <0|1>\n\
    \       perfbench --self-test [BENCHMARK.json]\n\
     valid flags: %s"
    (String.concat "|" workloads) (String.concat " " flags)

let int_arg flag ~min ~max v =
  match int_of_string_opt v with
  | Some n when n >= min && n <= max -> n
  | _ -> raise (Usage (Printf.sprintf "%s wants a whole number from %d to %d, not %S" flag min max v))

let parse argv =
  let workload = ref None and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec go = function
    | [] -> ()
    | arg :: rest -> (
        let flag, inline =
          match String.index_opt arg '=' with
          | Some i when String.length arg > 2 && String.sub arg 0 2 = "--" ->
              (String.sub arg 0 i, Some (String.sub arg (i + 1) (String.length arg - i - 1)))
          | _ -> (arg, None)
        in
        if not (List.mem flag run_flags) then
          raise
            (Usage
               (if List.mem flag flags then flag ^ " takes no other flags"
                else Printf.sprintf "unknown flag %S" arg));
        let value, rest =
          match (inline, rest) with
          | Some v, _ -> (v, rest)
          | None, v :: rest -> (v, rest)
          | None, [] -> raise (Usage (flag ^ " needs a value"))
        in
        match flag with
        | "--workload" ->
            if not (List.mem value workloads) then
              raise
                (Usage
                   (Printf.sprintf "unknown workload %S; valid workloads: %s" value
                      (String.concat ", " workloads)));
            workload := Some value;
            go rest
        | "--seed" ->
            seed := int_arg flag ~min:0 ~max:(1 lsl 40) value;
            go rest
        | "--seconds" ->
            seconds := int_arg flag ~min:1 ~max:120 value;
            go rest
        | "--trace" ->
            trace := int_arg flag ~min:0 ~max:1 value;
            go rest
        | _ -> raise (Usage (Printf.sprintf "unknown flag %S" arg)))
  in
  go argv;
  match !workload with
  | None -> raise (Usage "--workload is required")
  | Some w -> (w, !seed, !seconds, !trace = 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ ("--help" | "-h") ] -> print_endline (usage ())
  | "--self-test" :: rest -> (
      match rest with
      | [] -> exit (self_test None)
      | [ path ] -> exit (self_test (Some path))
      | _ -> prerr_endline (usage ()); exit 2)
  | argv -> (
      match parse argv with
      | exception Usage msg ->
          prerr_endline ("perfbench: " ^ msg);
          prerr_endline (usage ());
          exit 2
      | workload, seed, seconds, trace ->
          let o =
            if trace then traced ~workload ~seed ~scale:Full ~write:true
            else untraced ~workload ~seed ~seconds ~scale:Full
          in
          List.iter print_endline o.notes;
          print_endline (json o))
