(* decafctl: drive the five drivers through the unified driver model.

   The default command loads one (or all) of them in native and decaf
   mode and prints the Table 3 measurements; `decafctl status` brings
   every driver up through the registry and prints its per-driver
   lifecycle/XPC snapshot. *)

open Cmdliner
module E = Decaf_experiments

(* --driver is validated against the registry before any measurement
   runs; Table 3 prints "E1000" but the registry name is lowercase. *)
let resolve_driver = function
  | None -> Ok None
  | Some d ->
      let canon = String.lowercase_ascii d in
      if List.mem canon E.Status.driver_names then Ok (Some canon)
      else
        Error
          (Printf.sprintf "unknown driver %s (known: %s)" d
             (String.concat ", " E.Status.driver_names))

let run driver seconds =
  match resolve_driver driver with
  | Error msg ->
      Printf.eprintf "decafctl: %s\n" msg;
      exit 1
  | Ok driver ->
      let duration_ns = int_of_float (seconds *. 1e9) in
      let rows = E.Table3.measure ~duration_ns () in
      let rows =
        match driver with
        | None -> rows
        | Some d ->
            List.filter
              (fun r -> String.lowercase_ascii r.E.Table3.driver = d)
              rows
      in
      print_string (E.Table3.render rows);
      exit 0

let status driver json latency =
  match resolve_driver driver with
  | Error msg ->
      Printf.eprintf "decafctl: %s\n" msg;
      exit 1
  | Ok driver ->
      let snaps = E.Status.measure () in
      let snaps =
        match driver with
        | None -> snaps
        | Some d ->
            List.filter
              (fun s -> s.Decaf_drivers.Driver_core.s_driver = d)
              snaps
      in
      print_string
        (if json then E.Status.render_json snaps else E.Status.render snaps);
      if latency then begin
        print_newline ();
        print_string (E.Status.render_latency ())
      end;
      exit 0

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

let positive_float =
  ranged Arg.float ~expected:"a positive number" (fun x ->
      Float.is_finite x && x > 0.)

let driver_arg =
  let doc =
    "Restrict to one driver (8139too, e1000, ens1371, uhci-hcd, psmouse)."
  in
  Arg.(value & opt (some string) None & info [ "driver" ] ~docv:"DRIVER" ~doc)

let seconds_arg =
  let doc = "Virtual seconds of steady-state workload per cell." in
  Arg.(
    value & opt positive_float 2.0 & info [ "seconds" ] ~docv:"SECONDS" ~doc)

let run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Run a driver workload in native and decaf modes and compare")
    Term.(const run $ driver_arg $ seconds_arg)

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

(* ---- soak: the mixed-traffic latency soak ---- *)

let soak json check duration_ms fleet =
  match check with
  | Some path ->
      (* gate mode: re-measure at the committed file's scale and compare *)
      let ok =
        try E.Soak.check ~path () with
        | Sys_error e ->
            Printf.eprintf "decafctl: %s\n" e;
            exit 2
        | E.Jsonl.Missing_key { line; key } ->
            Printf.eprintf "decafctl: %s:%d: missing key %S\n" path line key;
            exit 2
      in
      exit (if ok then 0 else 1)
  | None ->
      let duration_ns = duration_ms * 1_000_000 in
      let s = E.Soak.measure ~duration_ns ~fleet () in
      print_string (if json then E.Soak.to_json s else E.Soak.render s);
      (* the scale may differ from the committed trajectory, so only the
         absolute gates apply: period deadlines and quiescence leaks *)
      let breached =
        s.E.Soak.steady_misses > 0
        || s.E.Soak.leaked_entries > 0
        || s.E.Soak.leaked_bytes <> 0
      in
      if breached then
        Printf.eprintf
          "decafctl soak: gate breach (steady misses %d, leaked entries %d, \
           leaked bytes %d)\n"
          s.E.Soak.steady_misses s.E.Soak.leaked_entries s.E.Soak.leaked_bytes;
      exit (if breached then 1 else 0)

let soak_json_arg =
  let doc =
    "Emit the line-JSON trajectory (header plus one object per phase/path \
     row) instead of the table."
  in
  Arg.(value & flag & info [ "json" ] ~doc)

let soak_check_arg =
  let doc =
    "Gate mode: re-measure at the committed trajectory's scale and fail on \
     a p99 regression, an audio deadline miss in the fault-free phase, or \
     a leak at quiescence."
  in
  Arg.(value & opt (some string) None & info [ "check" ] ~docv:"PATH" ~doc)

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
    Term.(const soak $ soak_json_arg $ soak_check_arg $ duration_ms_arg $ fleet_arg)

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
  let episode =
    Arg.enum (List.map (fun n -> (n, n)) E.Exploration.episode_names)
  in
  Arg.(
    value & opt (some episode) None & info [ "episode" ] ~docv:"EPISODE" ~doc)

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
    ~default:Term.(const run $ driver_arg $ seconds_arg)
    (Cmd.info "decafctl"
       ~doc:"Drive the decaf drivers through the unified driver model")
    [ run_cmd; status_cmd; explore_cmd; soak_cmd ]

let () = exit (Cmd.eval cmd)
