(* End-to-end tests over the experiment harness: every table must
   regenerate and keep the shape the paper reports. *)

module E = Decaf_experiments
module Report = Decaf_slicer.Report
module Partition = Decaf_slicer.Partition
module Errcheck = Decaf_slicer.Errcheck

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Table 1 --- *)

let test_table1_counts_infrastructure () =
  let t = E.Table1.measure () in
  check_bool "runtime support is substantial" true (t.E.Table1.runtime_total > 1_000);
  check_bool "slicer is substantial" true (t.E.Table1.slicer_total > 1_000);
  check "totals add up" t.E.Table1.grand_total
    (t.E.Table1.runtime_total + t.E.Table1.slicer_total);
  check_bool "render mentions DriverSlicer" true
    (Testutil.contains (E.Table1.render t) "DriverSlicer")

(* --- Table 2 --- *)

let test_table2_shape () =
  let rows = E.Table2.measure () in
  check "five drivers" 5 (List.length rows);
  let find name = List.find (fun r -> r.Report.ds_name = name) rows in
  (* four of five drivers move >75% of functions out of the kernel *)
  List.iter
    (fun name ->
      check_bool (name ^ " mostly user level") true
        (Report.user_fraction (find name) > 0.75))
    [ "8139too"; "e1000"; "ens1371"; "psmouse" ];
  (* ...but uhci-hcd cannot: function pointers drag its data path wide *)
  check_bool "uhci mostly kernel" true (Report.user_fraction (find "uhci-hcd") < 0.25);
  (* e1000 is the biggest driver and has no driver-library residue *)
  check_bool "e1000 largest" true
    (List.for_all (fun r -> (find "e1000").Report.ds_loc >= r.Report.ds_loc) rows);
  check "e1000 library empty" 0 (find "e1000").Report.ds_library_funcs;
  (* psmouse and 8139too keep C library code *)
  check_bool "psmouse keeps a C library" true ((find "psmouse").Report.ds_library_funcs > 5);
  check_bool "annotations are a tiny fraction" true
    (List.for_all
       (fun r ->
         float_of_int r.Report.ds_annotations /. float_of_int r.Report.ds_loc < 0.02)
       rows)

let test_table2_partitions_sound () =
  List.iter
    (fun (name, out) ->
      match Partition.check_soundness out.Decaf_slicer.Slicer.file
              out.Decaf_slicer.Slicer.partition
      with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s unsound: %s" name msg)
    (E.Table2.outputs ())

(* --- Table 4 --- *)

let test_table4_shape () =
  let s = E.Table4.measure () in
  check_bool "decaf dominates" true
    (s.Decaf_drivers.E1000_evolution.decaf_lines
    > s.Decaf_drivers.E1000_evolution.nucleus_lines);
  check_bool "interface smallest" true
    (s.Decaf_drivers.E1000_evolution.interface_lines
    < s.Decaf_drivers.E1000_evolution.nucleus_lines);
  check_bool "patches applied" true
    (s.Decaf_drivers.E1000_evolution.patches_applied >= 15);
  check_bool "annotations added for new fields" true
    (s.Decaf_drivers.E1000_evolution.new_annotations >= 1)

let test_evolution_patched_source_reparses () =
  let evolved = Decaf_drivers.E1000_evolution.apply Decaf_drivers.E1000_src.source in
  let out =
    Decaf_slicer.Slicer.slice ~source:evolved Decaf_drivers.E1000_src.config
  in
  check_bool "still partitions" true
    (List.length out.Decaf_slicer.Slicer.partition.Partition.user > 50)

let test_evolution_batches_independent () =
  let b1 =
    Decaf_drivers.E1000_evolution.apply
      ~batches:[ Decaf_drivers.E1000_evolution.Before_2_6_22 ]
      Decaf_drivers.E1000_src.source
  in
  check_bool "batch 1 applied wol field" true (Testutil.contains b1 "int wol;");
  check_bool "batch 2 not applied" false (Testutil.contains b1 "int restart_queue;");
  let b12 =
    Decaf_drivers.E1000_evolution.apply
      ~batches:[ Decaf_drivers.E1000_evolution.After_2_6_22 ]
      b1
  in
  check_bool "batch 2 applies on top" true (Testutil.contains b12 "int restart_queue;")

(* --- case study --- *)

let test_casestudy_28_cases () =
  let cs = E.Casestudy.measure () in
  check "exactly the 28 broken error paths" 28
    (List.length cs.E.Casestudy.violations);
  check_bool "savings near the paper's 8%" true
    (cs.E.Casestudy.savings_percent > 5. && cs.E.Casestudy.savings_percent < 10.)

let test_casestudy_artifacts () =
  let stub = E.Casestudy.figure2_stub () in
  check_bool "stub is jeannie (backtick call)" true
    (Testutil.contains stub "`snd_card_register(");
  check_bool "stub consults the object tracker" true
    (Testutil.contains stub "JavaOT.xlate_j_to_c");
  let xdr = E.Casestudy.figure3_xdr () in
  check_bool "xdr has the figure 3 wrapper" true
    (Testutil.contains xdr "struct array64_uint32_t");
  let before, after = E.Casestudy.figure5_before_after () in
  let count_lines s = List.length (String.split_on_char '\n' s) in
  check_bool "exception version is shorter" true
    (count_lines after < count_lines before);
  check_bool "propagation removed" false (Testutil.contains after "return ret_val;")

let test_casestudy_violation_kinds () =
  let cs = E.Casestudy.measure () in
  check_bool "bugs live in many functions" true
    (List.length
       (List.sort_uniq compare
          (List.map (fun v -> v.Errcheck.v_function) cs.E.Casestudy.violations))
    >= 15)

(* --- Fault campaign (full acceptance run lives in test_faultcampaign) --- *)

let test_faultcampaign_report_shape () =
  let r = E.Faultcampaign.run () in
  check_bool "covers all five drivers and passes acceptance" true
    (E.Faultcampaign.check r = Ok ());
  check_bool "at least 100 faults" true (r.E.Faultcampaign.total_injected >= 100);
  check "no kernel bugs" 0 r.E.Faultcampaign.total_kernel_bugs;
  check "recovered + degraded = detected" r.E.Faultcampaign.total_detected
    (r.E.Faultcampaign.total_recovered + r.E.Faultcampaign.total_degraded);
  let rendered = E.Faultcampaign.render r in
  check_bool "render lists outcomes" true
    (Testutil.contains rendered "recovered"
    && Testutil.contains rendered "degraded"
    && Testutil.contains rendered "Acceptance: OK")

(* --- The campaign trial harness: both outcomes of its catch-all --- *)

module Supervisor = Decaf_runtime.Supervisor

(* The supervisor re-raises a kernel bug, so it escapes the episode; the
   harness counts it instead of crashing the campaign. *)
let test_trial_kernel_bug () =
  let r =
    E.Trial.run ~seed:1 "e1000"
      (E.Trial.After (fun () -> Decaf_kernel.Panic.bug "trial test"))
  in
  check "kernel bug counted" 1 r.E.Trial.kernel_bugs;
  check_bool "episode did not finish" false r.E.Trial.finished

(* A driver fault stays inside the supervisor: one restart re-runs the
   episode, which then finishes. *)
let test_trial_driver_fault () =
  let thrown = ref false in
  let r =
    E.Trial.run ~seed:1 "e1000"
      (E.Trial.After
         (fun () ->
           if not !thrown then begin
             thrown := true;
             Decaf_runtime.Errors.throw ~driver:"e1000"
               ~errno:Decaf_runtime.Errors.eio "trial test"
           end))
  in
  let st = Supervisor.stats r.E.Trial.supervisor in
  check "no kernel bug" 0 r.E.Trial.kernel_bugs;
  check "detected" 1 st.Supervisor.detected;
  check "recovered" 1 st.Supervisor.recovered;
  check "restarts" 1 st.Supervisor.restarts;
  check_bool "episode finished" true r.E.Trial.finished

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_experiments"
    [
      ("table1", [ tc "infrastructure loc" test_table1_counts_infrastructure ]);
      ( "table2",
        [
          tc "shape" test_table2_shape;
          tc "partitions sound" test_table2_partitions_sound;
        ] );
      ( "table4",
        [
          tc "shape" test_table4_shape;
          tc "patched source reparses" test_evolution_patched_source_reparses;
          tc "batches independent" test_evolution_batches_independent;
        ] );
      ( "casestudy",
        [
          tc "28 cases" test_casestudy_28_cases;
          tc "artifacts" test_casestudy_artifacts;
          tc "violation spread" test_casestudy_violation_kinds;
        ] );
      ("faultcampaign", [ tc "report shape" test_faultcampaign_report_shape ]);
      ( "trial",
        [
          tc "a kernel bug is counted" test_trial_kernel_bug;
          tc "a driver fault is recovered" test_trial_driver_fault;
        ] );
    ]
