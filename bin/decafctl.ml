(* decafctl: drive the five drivers through the unified driver model.

   `decafctl status` brings every driver up through the registry and
   prints its per-driver lifecycle/XPC snapshot; `xpcperf` and `soak`
   print the XPC matrix (Table 3 among its cells) and the mixed-traffic
   soak, with `--json` the committed BENCH_xpc.json and BENCH_soak.json;
   `explore` runs decaf-check. A command is required. *)

open Cmdliner
module E = Decaf_experiments

let status driver json latency =
  let snaps = E.Status.measure () in
  let snaps =
    match driver with
    | None -> snaps
    | Some d ->
        List.filter (fun s -> s.Decaf_drivers.Driver_core.s_driver = d) snaps
  in
  print_string
    (if json then E.Status.render_json snaps else E.Status.render snaps);
  if latency then begin
    print_newline ();
    print_string (E.Status.render_latency ())
  end

(* Numeric flags check their range in the converter, so a negative
   duration, fleet or depth gets cmdliner's one-line usage error and exit
   124, exactly like a malformed number, instead of running a meaningless
   measurement. *)
let ranged conv ~expected ok =
  let parse s =
    match Arg.conv_parser conv s with
    | Ok v when not (ok v) ->
        Error
          (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
    | r -> r
  in
  Arg.conv (parse, Arg.conv_printer conv)

let positive_int = ranged Arg.int ~expected:"a positive integer" (fun n -> n > 0)

let non_negative_int =
  ranged Arg.int ~expected:"a non-negative integer" (fun n -> n >= 0)

(* A name from a fixed list: a misspelt one is a usage error naming the
   valid ones. *)
let names_enum names = Arg.enum (List.map (fun n -> (n, n)) names)

let driver_arg =
  let doc =
    "Restrict to one driver (8139too, e1000, ens1371, uhci-hcd, psmouse)."
  in
  Arg.(
    value
    & opt (some (names_enum E.Status.driver_names)) None
    & info [ "driver" ] ~docv:"DRIVER" ~doc)

let json_arg =
  let doc =
    "Emit one JSON object per driver (machine-readable snapshot, including \
     boundary-rejection counters) instead of the table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let latency_arg =
  let doc =
    "Also print the per-path latency percentiles (p50/p99/p999/max) from \
     the event-accounting registry, as observed over the status workload \
     slice."
  in
  Arg.(value & flag & info [ "latency" ] ~doc)

let status_cmd =
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Load every driver through the registry and print its lifecycle, \
          crossing and supervisor snapshot")
    Term.(const status $ driver_arg $ json_arg $ latency_arg)

(* An acceptance complaint goes to stderr after the output and fails the
   command, so a dune rule that prints the output fails on it too. *)
let accept cmd complaints =
  List.iter (Printf.eprintf "decafctl %s: %s\n" cmd) complaints;
  if complaints <> [] then exit 1

(* ---- xpcperf: the concurrent, batched and ring XPC matrix ---- *)

let xpcperf scenario config json =
  match E.Xpcperf.measure ?scenario ?config () with
  | [] ->
      `Error
        ( true,
          Printf.sprintf "the matrix measures no cell of scenario %s under %s"
            (Option.value scenario ~default:"(any)")
            (Option.value config ~default:"(any)") )
  | samples ->
      let complaints = E.Xpcperf.acceptance samples in
      print_string
        (if json then
           E.Xpcperf.to_json ~duration_ns:E.Xpcperf.default_duration_ns
             samples
         else E.Xpcperf.render samples);
      accept "xpcperf" complaints;
      `Ok ()

let scenario_arg =
  let doc = "Measure one scenario's row of the matrix." in
  Arg.(
    value
    & opt (some (names_enum E.Xpcperf.scenario_names)) None
    & info [ "scenario" ] ~docv:"SCENARIO" ~doc)

let config_arg =
  let doc = "Measure one configuration's column of the matrix." in
  Arg.(
    value
    & opt (some (names_enum (E.Xpcperf.config_names ()))) None
    & info [ "config" ] ~docv:"CONFIG" ~doc)

let xpcperf_json_arg =
  let doc =
    "Emit the line-JSON trajectory (the committed BENCH_xpc.json for the \
     whole matrix) instead of the table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let xpcperf_cmd =
  Cmd.v
    (Cmd.info "xpcperf"
       ~doc:
         "Measure the XPC matrix (the build, batching, delta marshaling, \
          dispatch workers, Guard, the shared ring and the e1000 fleet axis) \
          and print crossings, bytes and virtual time per cell; exits nonzero \
          when the fleet stops scaling or turns unfair, two cells of a \
          scenario are twins, a decaf cell leaves Table 3's shape against its \
          native twin, or a native cell reaches XPC")
    Term.(ret (const xpcperf $ scenario_arg $ config_arg $ xpcperf_json_arg))

(* ---- soak: the mixed-traffic latency soak ---- *)

let soak json duration_ms fleet =
  let s = E.Soak.measure ~duration_ns:(duration_ms * 1_000_000) ~fleet () in
  let complaints = E.Soak.acceptance s in
  print_string (if json then E.Soak.to_json s else E.Soak.render s);
  accept "soak" complaints

let soak_json_arg =
  let doc =
    "Emit the line-JSON trajectory (header plus one object per phase/path \
     row; the committed BENCH_soak.json at the defaults) instead of the \
     table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let duration_ms_arg =
  let doc = "Virtual milliseconds per phase." in
  Arg.(
    value
    & opt positive_int (E.Soak.default_duration_ns / 1_000_000)
    & info [ "duration-ms" ] ~docv:"MS" ~doc)

let fleet_arg =
  let doc = "Concurrent e1000 instances on the virtual switch." in
  Arg.(
    value & opt positive_int E.Soak.default_fleet & info [ "fleet" ] ~docv:"N" ~doc)

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run the two-phase mixed-traffic soak (all five drivers, fault-free \
          then churn) and print per-path latency percentiles; exits nonzero \
          on an audio deadline miss in the fault-free phase or a leak at \
          quiescence")
    Term.(const soak $ soak_json_arg $ duration_ms_arg $ fleet_arg)

(* ---- explore: the decaf-check exploration harness ---- *)

let explore episode depth smoke json lock_order =
  let results = E.Exploration.run ?episode ?depth ~smoke () in
  if json then print_string (E.Exploration.render_json results)
  else begin
    print_string (E.Exploration.render results);
    if lock_order then begin
      print_newline ();
      print_string (E.Exploration.render_lock_order results)
    end
  end;
  let cxs =
    List.exists
      (fun r -> r.E.Exploration.x_report.Decaf_check.Explore.r_counterexamples <> [])
      results
  in
  exit (if cxs then 1 else 0)

let episode_arg =
  let doc =
    Printf.sprintf "Explore a single episode (one of %s); the whole catalog \
                    when omitted."
      (String.concat ", " E.Exploration.episode_names)
  in
  Arg.(
    value
    & opt (some (names_enum E.Exploration.episode_names)) None
    & info [ "episode" ] ~docv:"EPISODE" ~doc)

let depth_arg =
  let doc = "Override the branching-depth bound for every episode." in
  Arg.(
    value & opt (some non_negative_int) None & info [ "depth" ] ~docv:"DEPTH" ~doc)

let smoke_arg =
  let doc = "Use each episode's reduced smoke depth (fast CI run)." in
  Arg.(value & flag & info [ "smoke" ] ~doc)

let explore_json_arg =
  let doc =
    "Emit one JSON object per episode (stats, counterexamples, dynamic \
     lock-order edges) instead of the table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let lock_order_arg =
  let doc = "Also print the dynamic lock-acquisition-order edges." in
  Arg.(value & flag & info [ "lock-order" ] ~doc)

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Exhaustively explore the episode catalog's scheduling \
          nondeterminism (DPOR) and report invariant violations with \
          replayable counterexample traces")
    Term.(
      const explore $ episode_arg $ depth_arg $ smoke_arg $ explore_json_arg
      $ lock_order_arg)

let cmd =
  Cmd.group
    (Cmd.info "decafctl"
       ~doc:"Drive the decaf drivers through the unified driver model")
    [ status_cmd; explore_cmd; xpcperf_cmd; soak_cmd ]

let () = exit (Cmd.eval cmd)
