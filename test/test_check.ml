(* decaf-check regressions: clean-tree catalog exploration, the
   seed-and-catch mutation gate (both planted bugs must be found), the
   checked-in minimized counterexamples replayed as a table, replay
   determinism, the blocking-in-irq-window-hook guard, and the bundled
   drivers' dynamic lock-acquisition order. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module C = Decaf_check
module Explore = C.Explore
module Episodes = C.Episodes
module Invariants = C.Invariants

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let episode name =
  match Episodes.find name with
  | Some e -> e
  | None -> Alcotest.failf "unknown episode %s" name

let kinds vs =
  List.sort_uniq compare (List.map (fun v -> v.Invariants.v_kind) vs)

let violations_str vs =
  String.concat "; " (List.map Invariants.violation_to_string vs)

(* --- clean tree: the whole catalog explores violation-free --- *)

let test_catalog_clean () =
  K.Mutants.reset ();
  List.iter
    (fun e ->
      let r = Explore.explore ~depth:e.Explore.ep_smoke_depth e in
      let s = r.Explore.r_stats in
      check_bool
        (e.Explore.ep_name ^ " explored at least one schedule")
        true
        (s.Explore.executions >= 1);
      check_bool (e.Explore.ep_name ^ " not capped") false s.Explore.capped;
      (match r.Explore.r_counterexamples with
      | [] -> ()
      | cx :: _ ->
          Alcotest.failf "%s: clean tree produced %s" e.Explore.ep_name
            (Invariants.violation_to_string cx.Explore.cx_violation)))
    Episodes.all

(* --- seed-and-catch: both planted mutants must be found --- *)

let catalog_kinds () =
  List.concat_map
    (fun e ->
      let r = Explore.explore e in
      List.map
        (fun cx -> cx.Explore.cx_violation.Invariants.v_kind)
        r.Explore.r_counterexamples)
    Episodes.all
  |> List.sort_uniq compare

let test_mutant_drop_drain () =
  K.Mutants.reset ();
  K.Mutants.drop_unbind_drain := true;
  let found =
    Fun.protect ~finally:K.Mutants.reset (fun () -> catalog_kinds ())
  in
  check_bool "dropping the unbind drain is caught (after-free)" true
    (List.mem "after-free" found)

let test_mutant_swap_lock_order () =
  K.Mutants.reset ();
  K.Mutants.swap_lock_order := true;
  let found =
    Fun.protect ~finally:K.Mutants.reset (fun () -> catalog_kinds ())
  in
  check_bool "swapping the combolock order is caught (lock-order)" true
    (List.mem "lock-order" found)

(* --- checked-in counterexample replays ---------------------------------

   Each row is a minimized counterexample the explorer produced against
   a planted mutant (trace "" means the violation reproduces on the
   default schedule), plus the full discovery schedule, plus the same
   schedules replayed on the clean tree where they must be silent. *)

type replay_row = {
  rr_episode : string;
  rr_mutant : bool ref option;
  rr_trace : string;
  rr_expect : string option;  (* violation kind, None = must be clean *)
}

let replay_table =
  [
    {
      rr_episode = "fleet-churn";
      rr_mutant = Some K.Mutants.drop_unbind_drain;
      rr_trace = "";
      rr_expect = Some "after-free";
    };
    {
      rr_episode = "fleet-churn";
      rr_mutant = Some K.Mutants.drop_unbind_drain;
      rr_trace = "loader,churn-a,churn-b,kworker/xpc-batch/0";
      rr_expect = Some "after-free";
    };
    {
      rr_episode = "lock-hierarchy";
      rr_mutant = Some K.Mutants.swap_lock_order;
      rr_trace = "";
      rr_expect = Some "lock-order";
    };
    {
      rr_episode = "lock-hierarchy";
      rr_mutant = Some K.Mutants.swap_lock_order;
      rr_trace = "loader,path-a,path-b";
      rr_expect = Some "lock-order";
    };
    {
      rr_episode = "fleet-churn";
      rr_mutant = None;
      rr_trace = "";
      rr_expect = None;
    };
    {
      rr_episode = "lock-hierarchy";
      rr_mutant = None;
      rr_trace = "loader,path-a,path-b";
      rr_expect = None;
    };
  ]

let test_replay_table () =
  List.iter
    (fun row ->
      K.Mutants.reset ();
      Option.iter (fun r -> r := true) row.rr_mutant;
      let vs =
        Fun.protect ~finally:K.Mutants.reset (fun () ->
            Explore.replay (episode row.rr_episode) row.rr_trace)
      in
      match row.rr_expect with
      | Some kind ->
          check_bool
            (Printf.sprintf "%s trace %S reproduces %s (got: %s)"
               row.rr_episode row.rr_trace kind (violations_str vs))
            true
            (List.mem kind (kinds vs))
      | None ->
          check_str
            (Printf.sprintf "%s trace %S silent on the clean tree"
               row.rr_episode row.rr_trace)
            "" (violations_str vs))
    replay_table

let test_replay_deterministic () =
  K.Mutants.reset ();
  K.Mutants.drop_unbind_drain := true;
  let run () =
    Explore.replay (episode "fleet-churn")
      "loader,churn-a,churn-b,kworker/xpc-batch/0"
  in
  let a, b = Fun.protect ~finally:K.Mutants.reset (fun () -> (run (), run ())) in
  check_bool "replay found the violation" true (a <> []);
  check_str "two replays of one trace agree" (violations_str a)
    (violations_str b)

(* --- blocking inside the irq-window hook is a caught bug --- *)

let test_window_hook_blocking () =
  K.Boot.boot ();
  Xpc.Batch.set_enabled true;
  Xpc.Batch.post ~target:Xpc.Domain.Driver_lib ~context:"test" (fun () -> ());
  check_bool "notification queued" true (Xpc.Batch.pending () > 0);
  K.Sched.set_irq_window_hook (fun () -> Xpc.Batch.drain ());
  ignore
    (K.Sched.spawn ~name:"masker" (fun () ->
         K.Sched.local_irq_save ();
         K.Sched.local_irq_restore ()));
  (match K.Sched.run () with
  | () -> Alcotest.fail "batch flush inside the irq-window hook not caught"
  | exception K.Sched.Would_block_in_atomic what ->
      check_bool
        (Printf.sprintf "names the hook context: %s" what)
        true
        (Testutil.contains what "irq-window hook"));
  (* boot a fresh world so the poisoned hook cannot leak into later tests *)
  K.Boot.boot ()

(* --- the bundled drivers take no lock pair in both orders --- *)

let test_bundled_conflict_free () =
  let module E = Decaf_experiments.Exploration in
  let edges =
    List.concat_map
      (fun r -> r.E.x_report.Explore.r_lock_edges)
      (E.run ~smoke:true ())
  in
  check_bool "no AB/BA pair in the dynamic lock order" false
    (List.exists (fun (a, b) -> List.mem (b, a) edges) edges)

let () =
  Alcotest.run "decaf-check"
    [
      ( "explore",
        [
          Alcotest.test_case "catalog clean" `Quick test_catalog_clean;
          Alcotest.test_case "mutant: dropped unbind drain is caught" `Quick
            test_mutant_drop_drain;
          Alcotest.test_case "mutant: swapped lock order is caught" `Quick
            test_mutant_swap_lock_order;
        ] );
      ( "replay",
        [
          Alcotest.test_case "counterexample table replays" `Quick
            test_replay_table;
          Alcotest.test_case "replay is deterministic" `Quick
            test_replay_deterministic;
        ] );
      ( "guards",
        [
          Alcotest.test_case "batch flush in irq-window hook" `Quick
            test_window_hook_blocking;
        ] );
      ( "lock-order",
        [
          Alcotest.test_case "bundled drivers conflict-free" `Quick
            test_bundled_conflict_free;
        ] );
    ]
