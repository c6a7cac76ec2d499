(* The mixed-traffic soak: end-to-end smoke at a reduced scale, the
   pure p99 comparator, and the trajectory JSON round-trip. The
   committed-scale gate itself runs as the @soak-smoke dune alias. *)

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

(* --- the pure p99 comparator --- *)

let row ?(phase = "steady") ?(path = "net.tx") p99_ns =
  {
    E.Soak.phase;
    path;
    samples = 100;
    overflow = 0;
    p50_ns = p99_ns / 2;
    p99_ns;
    p999_ns = p99_ns;
    max_ns = p99_ns;
  }

let test_compare_within_slack () =
  let complaints =
    E.Soak.compare_rows
      ~committed:[ row 100_000 ]
      ~fresh:[ row 104_000 ]
      ()
  in
  check "4% drift passes a 5% gate" 0 (List.length complaints)

let test_compare_regression () =
  let complaints =
    E.Soak.compare_rows
      ~committed:[ row 100_000 ]
      ~fresh:[ row 106_000 ]
      ()
  in
  check "6% drift fails a 5% gate" 1 (List.length complaints);
  (* a wider explicit slack lets the same drift through *)
  check "passes at 10%" 0
    (List.length
       (E.Soak.compare_rows ~p99_slack_pct:10
          ~committed:[ row 100_000 ]
          ~fresh:[ row 106_000 ]
          ()))

let test_compare_absolute_floor () =
  (* nanosecond-scale paths get a 2 us absolute budget so one-bucket
     jitter cannot trip the percentage gate *)
  let ok =
    E.Soak.compare_rows ~committed:[ row 100 ] ~fresh:[ row 2_000 ] ()
  in
  check "within the 2 us floor" 0 (List.length ok);
  let bad =
    E.Soak.compare_rows ~committed:[ row 100 ] ~fresh:[ row 2_200 ] ()
  in
  check "beyond the floor" 1 (List.length bad)

let test_compare_disappeared_path () =
  let complaints =
    E.Soak.compare_rows
      ~committed:[ row ~path:"net.tx" 1_000; row ~path:"irq" 1_000 ]
      ~fresh:[ row ~path:"net.tx" 1_000 ]
      ()
  in
  check "a committed path that stopped sampling is a failure" 1
    (List.length complaints)

(* --- trajectory JSON round-trip --- *)

let test_json_roundtrip () =
  let s = Lazy.force summary in
  let s' = E.Soak.of_json (E.Soak.to_json s) in
  check "duration" s.E.Soak.duration_ns s'.E.Soak.duration_ns;
  check "fleet" s.E.Soak.fleet s'.E.Soak.fleet;
  check "seed" s.E.Soak.seed s'.E.Soak.seed;
  check "steady misses" s.E.Soak.steady_misses s'.E.Soak.steady_misses;
  check "churn misses" s.E.Soak.churn_misses s'.E.Soak.churn_misses;
  check "audio periods" s.E.Soak.audio_periods s'.E.Soak.audio_periods;
  check "packets" s.E.Soak.packets s'.E.Soak.packets;
  check "leaked entries" s.E.Soak.leaked_entries s'.E.Soak.leaked_entries;
  check "leaked bytes" s.E.Soak.leaked_bytes s'.E.Soak.leaked_bytes;
  check_bool "rows survive the round trip" true
    (s.E.Soak.rows = s'.E.Soak.rows)

(* A baseline header missing its seed is rejected: the gate must not
   re-measure at the default seed and compare against another run. *)
let test_json_missing_seed_rejected () =
  let s =
    {
      E.Soak.duration_ns = 1_000_000;
      fleet = 2;
      seed = 7;
      rows = [ row 1_000 ];
      steady_misses = 0;
      churn_misses = 0;
      audio_periods = 1;
      packets = 1;
      leaked_entries = 0;
      leaked_bytes = 0;
    }
  in
  Alcotest.check_raises "line 1 names the missing key"
    (E.Jsonl.Missing_key { line = 1; key = "seed" })
    (fun () ->
      ignore
        (E.Soak.of_json
           (Testutil.replace (E.Soak.to_json s) ~needle:"\"seed\":7,"
              ~replacement:"")))

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
      ( "compare",
        [
          tc "within slack" test_compare_within_slack;
          tc "regression" test_compare_regression;
          tc "absolute floor" test_compare_absolute_floor;
          tc "disappeared path" test_compare_disappeared_path;
        ] );
      ( "json",
        [
          tc "round trip" test_json_roundtrip;
          tc "a header missing seed is rejected"
            test_json_missing_seed_rejected;
          tc "writer escapes strings" test_json_writer_escapes;
        ] );
    ]
