(* The benchmark harness: regenerates every table of the paper's
   evaluation and the committed XPC and soak trajectories. Host cost
   per layer (marshal, crossing, tracker lookup, lock fast path) is
   timed by perfbench's traced pass, not here.

   Usage:
     bench/main.exe              run everything
     bench/main.exe table1 ...   run selected parts
       (table1 table2 table3 table4 casestudy ablations xpcperf soak)
     bench/main.exe json [path]  write the batched-XPC trajectory
                                 (default BENCH_xpc.json)
     bench/main.exe check path   re-measure and fail on >10% regression
                                 against a committed trajectory
     bench/main.exe soak-json [path]   write the soak latency trajectory
                                       (default BENCH_soak.json)
     bench/main.exe soak-check path    re-measure and fail on a p99
                                       regression, an audio deadline
                                       miss (steady phase) or a leak

   The xpcperf section accepts matrix filters, so one of the sweep's
   46 cells (the three NIC scenarios x 11 configs, psmouse x 5,
   ens1371 x 4, and the e1000-fleet axis at i in {1,16,64,256}) can be
   reproduced locally:
     bench/main.exe xpcperf --scenario=e1000-netperf-send \
                            --config=batch+delta+w1+ring
     bench/main.exe xpcperf --scenario=e1000-fleet \
                            --config=batch+delta+w4+ring+i64
   Bad input fails fast: an unknown section or filter name, a scenario
   and config the matrix does not pair, a missing baseline file, a
   baseline line missing a key or a malformed number prints one line
   on stderr and exits 2.
*)

module E = Decaf_experiments

let section title = Printf.printf "\n==== %s ====\n%!" title

(* --- table harnesses: each regenerates one table/figure set --- *)

let run_table1 () = print_string (E.Table1.render (E.Table1.measure ()))
let run_table2 () = print_string (E.Table2.render (E.Table2.measure ()))
let run_table3 () = print_string (E.Table3.render (E.Table3.measure ()))
let run_table4 () = print_string (E.Table4.render (E.Table4.measure ()))

let run_casestudy () =
  print_string (E.Casestudy.render (E.Casestudy.measure ()));
  section "Figure 2: generated Jeannie stub for snd_card_register";
  print_string (E.Casestudy.figure2_stub ());
  section "Figure 3: generated XDR spec for the E1000 (excerpt)";
  let xdr = E.Casestudy.figure3_xdr () in
  let take_lines n s =
    String.split_on_char '\n' s
    |> List.filteri (fun i _ -> i < n)
    |> String.concat "\n"
  in
  print_endline (take_lines 30 xdr);
  section "Figure 5: e1000_config_dsp_after_link_change, before/after";
  let before, after = E.Casestudy.figure5_before_after () in
  Printf.printf "--- original (return codes) ---\n%s\n" before;
  Printf.printf "--- exception style ---\n%s\n" after

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench: " ^ s);
      exit 2)
    fmt

(* --scenario=/--config= filters for the xpcperf matrix: validate
   against the experiment's own name lists so a typo fails fast instead
   of silently measuring nothing. *)
let prefixed p a =
  let pl = String.length p in
  if String.length a > pl && String.sub a 0 pl = p then
    Some (String.sub a pl (String.length a - pl))
  else None

let parse_matrix_filters args =
  let check what valid = function
    | Some name when not (List.mem name valid) ->
        fail "unknown %s %S; valid: %s" what name (String.concat ", " valid)
    | v -> v
  in
  let scenario, config, rest =
    List.fold_left
      (fun (s, c, rest) a ->
        match (prefixed "--scenario=" a, prefixed "--config=" a) with
        | Some v, _ -> (Some v, c, rest)
        | _, Some v -> (s, Some v, rest)
        | None, None -> (s, c, a :: rest))
      (None, None, []) args
  in
  ( check "scenario" E.Xpcperf.scenario_names scenario,
    check "config" (E.Xpcperf.config_names ()) config,
    List.rev rest )

let run_sections args =
  let scenario, config, args = parse_matrix_filters args in
  let titled title run () =
    section title;
    run ()
  in
  let sections =
    [
      ("table1", titled "Table 1" run_table1);
      ("table2", titled "Table 2" run_table2);
      ("table3", titled "Table 3" run_table3);
      ("table4", titled "Table 4" run_table4);
      ("casestudy", titled "Case study (5.1)" run_casestudy);
      ( "ablations",
        titled "Ablations" (fun () ->
            print_string (E.Ablations.render (E.Ablations.measure ()))) );
      ( "xpcperf",
        titled "Concurrent dispatch, batched XPC and delta marshaling"
          (fun () ->
            match E.Xpcperf.measure ?scenario ?config () with
            | [] ->
                fail "the matrix measures no cell of scenario %s under %s"
                  (Option.value scenario ~default:"(any)")
                  (Option.value config ~default:"(any)")
            | samples -> print_string (E.Xpcperf.render samples)) );
      ( "soak",
        titled "Mixed-traffic soak (latency percentiles per event path)"
          (fun () -> print_string (E.Soak.render (E.Soak.measure ()))) );
    ]
  in
  let names = List.map fst sections in
  List.iter
    (fun a ->
      if not (List.mem a names) then
        fail "unknown section %S; valid: %s (or json, check, soak-json, \
              soak-check)"
          a (String.concat ", " names))
    args;
  List.iter
    (fun (name, run) -> if args = [] || List.mem name args then run ())
    sections

(* A regression gate exits 1; a baseline it cannot read, or one with a
   line missing a key, is bad input. *)
let gate path check =
  match check () with
  | true -> ()
  | false -> exit 1
  | exception Sys_error e -> fail "%s" e
  | exception E.Jsonl.Missing_key { line; key } ->
      fail "%s:%d: missing key %S" path line key

let positive flag v =
  match int_of_string_opt v with
  | Some n when n > 0 -> n
  | _ -> fail "%s wants a positive whole number, not %S" flag v

let () =
  match List.tl (Array.to_list Sys.argv) with
  | "json" :: rest ->
      let path = match rest with p :: _ -> p | [] -> "BENCH_xpc.json" in
      let samples = E.Xpcperf.write_json ~path () in
      print_string (E.Xpcperf.render samples);
      Printf.printf "wrote %d samples to %s\n" (List.length samples) path
  | [ "check"; path ] -> gate path (fun () -> E.Xpcperf.check ~path ())
  | "soak-json" :: rest ->
      (* optional overrides, e.g. `soak-json --duration-ms=500 --fleet=4`,
         for scaled-up local runs; the committed file uses the defaults *)
      let duration_ns = ref E.Soak.default_duration_ns
      and fleet = ref E.Soak.default_fleet
      and paths = ref [] in
      List.iter
        (fun a ->
          match (prefixed "--duration-ms=" a, prefixed "--fleet=" a) with
          | Some v, _ -> duration_ns := positive "--duration-ms" v * 1_000_000
          | _, Some v -> fleet := positive "--fleet" v
          | None, None when String.starts_with ~prefix:"--" a ->
              fail "unknown soak-json flag %S; valid: --duration-ms=N, \
                    --fleet=N" a
          | None, None -> paths := a :: !paths)
        rest;
      let path =
        match List.rev !paths with p :: _ -> p | [] -> "BENCH_soak.json"
      in
      let s =
        E.Soak.write_json ~duration_ns:!duration_ns ~fleet:!fleet ~path ()
      in
      print_string (E.Soak.render s);
      Printf.printf "wrote %d rows to %s\n" (List.length s.E.Soak.rows) path
  | [ "soak-check"; path ] -> gate path (fun () -> E.Soak.check ~path ())
  | (("check" | "soak-check") as c) :: _ -> fail "%s wants one baseline path" c
  | args -> run_sections args
