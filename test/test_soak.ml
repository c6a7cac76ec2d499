(* The mixed-traffic soak: end-to-end smoke at a reduced scale, the
   acceptance gates on hand-made summaries, and the JSON writer. The
   committed trajectory itself is diffed by the @soak-smoke dune
   alias. *)

module E = Decaf_experiments

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* One reduced-scale measurement shared by the smoke and round-trip
   tests (the soak is deterministic, but there is no point running it
   twice). *)
let summary =
  lazy (E.Soak.measure ~duration_ns:100_000_000 ~fleet:2 ~seed:0x50a11 ())

(* The acceptance floor: these paths must all collect samples in the
   fault-free phase at even a tenth of the committed duration. *)
let required_paths =
  [ "irq"; "xpc.dispatch"; "xpc.batch"; "xpc.ring"; "net.tx"; "audio.period" ]

let test_soak_smoke () =
  let s = Lazy.force summary in
  let steady =
    List.filter (fun r -> r.E.Soak.phase = "steady") s.E.Soak.rows
  in
  List.iter
    (fun path ->
      match List.find_opt (fun r -> r.E.Soak.path = path) steady with
      | None -> Alcotest.failf "path %s missing from the steady phase" path
      | Some r ->
          check_bool (path ^ " sampled") true (r.E.Soak.samples > 0);
          check_bool
            (path ^ " percentiles ordered")
            true
            (r.E.Soak.p50_ns <= r.E.Soak.p99_ns
            && r.E.Soak.p99_ns <= r.E.Soak.p999_ns
            && r.E.Soak.p999_ns <= r.E.Soak.max_ns))
    required_paths;
  check "no audio deadline miss in the fault-free phase" 0
    s.E.Soak.steady_misses;
  check_bool "audio made progress" true (s.E.Soak.audio_periods > 0);
  check_bool "packets flowed" true (s.E.Soak.packets > 0);
  check "no leaked tracker entries" 0 s.E.Soak.leaked_entries;
  check "no leaked kmalloc bytes" 0 s.E.Soak.leaked_bytes

let test_soak_deterministic () =
  (* same (duration, fleet, seed) => identical trajectory; this is what
     makes the committed-file gate meaningful *)
  let a = Lazy.force summary in
  let b = E.Soak.measure ~duration_ns:100_000_000 ~fleet:2 ~seed:0x50a11 () in
  check_bool "rows identical" true (a.E.Soak.rows = b.E.Soak.rows);
  check "packets identical" a.E.Soak.packets b.E.Soak.packets;
  check "periods identical" a.E.Soak.audio_periods b.E.Soak.audio_periods

(* --- the acceptance gates --- *)

let clean =
  {
    E.Soak.duration_ns = 1_000_000;
    fleet = 2;
    seed = 7;
    rows = [];
    steady_misses = 0;
    churn_misses = 3;
    audio_periods = 100;
    packets = 10;
    leaked_entries = 0;
    leaked_bytes = 0;
  }

let complaints s = List.length (E.Soak.acceptance s)

let test_acceptance_clean () =
  Alcotest.(check (list string))
    "churn misses are allowed, nothing else" [] (E.Soak.acceptance clean)

let test_acceptance_steady_miss () =
  check "one steady-phase audio miss" 1
    (complaints { clean with E.Soak.steady_misses = 1 })

let test_acceptance_leaked_entries () =
  check "one tracker entry left at quiescence" 1
    (complaints { clean with E.Soak.leaked_entries = 1 })

let test_acceptance_leaked_bytes () =
  check "kmalloc bytes left at quiescence" 1
    (complaints { clean with E.Soak.leaked_bytes = 64 })

(* The one writer every line-JSON file and report goes through: compact,
   keys in order, strings escaped so a trace or message with quotes,
   backslashes or control characters still parses. *)
let test_json_writer_escapes () =
  Alcotest.(check string)
    "escaped, compact, in order"
    {|{"s":"a\"b\\c\nd\u0009e","n":-3,"b":true,"a":[1,{}]}|}
    E.Jsonl.(
      to_string
        (Obj
           [
             ("s", Str "a\"b\\c\nd\te");
             ("n", Int (-3));
             ("b", Bool true);
             ("a", Arr [ Int 1; Obj [] ]);
           ]))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_soak"
    [
      ( "soak",
        [
          tc "reduced-scale smoke" test_soak_smoke;
          tc "deterministic" test_soak_deterministic;
        ] );
      ( "acceptance",
        [
          tc "a clean run passes" test_acceptance_clean;
          tc "a steady miss fails" test_acceptance_steady_miss;
          tc "leaked entries fail" test_acceptance_leaked_entries;
          tc "leaked bytes fail" test_acceptance_leaked_bytes;
        ] );
      ( "json",
        [
          tc "writer escapes strings" test_json_writer_escapes;
        ] );
    ]
