(* decaf-check regressions: clean-tree catalog exploration over the real
   drivers, the seed-and-catch mutation gate (a dropped unbind drain is
   the closed-env panic), a schedule that never quiesces, the checked-in
   minimized counterexamples replayed as a table, replay determinism,
   the blocking-in-irq-window-hook guard, and the lock-order cycle
   check. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module C = Decaf_check
module Explore = C.Explore
module Episodes = C.Episodes
module Invariants = C.Invariants
open Decaf_drivers

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
      let r = Explore.explore ~depth:Explore.smoke_depth e in
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

(* --- seed-and-catch: the planted mutant must be found --- *)

let catalog_violations () =
  List.concat_map
    (fun e ->
      let r = Explore.explore e in
      List.map
        (fun cx -> (e.Explore.ep_name, cx.Explore.cx_violation))
        r.Explore.r_counterexamples)
    Episodes.all

(* rmmod without its drain leaves ens1371's last pcm-pointer notify
   queued; the batch timer delivers it through the closed env. *)
let test_mutant_drop_drain () =
  K.Mutants.reset ();
  K.Mutants.drop_unbind_drain := true;
  let found =
    Fun.protect ~finally:K.Mutants.reset (fun () -> catalog_violations ())
  in
  let shown =
    String.concat "; "
      (List.map
         (fun (ep, v) -> ep ^ ": " ^ Invariants.violation_to_string v)
         found)
  in
  check_bool
    (Printf.sprintf "the closed env panics on ens1371's notify (found: %s)"
       shown)
    true
    (List.exists
       (fun (_, v) ->
         v.Invariants.v_kind = "panic"
         && v.Invariants.v_detail
            = "ens1371: deferred notification delivered after unbind")
       found)

(* --- a binding left up never quiesces: reported, in bounded time --- *)

let test_no_quiescence () =
  K.Mutants.reset ();
  let left_bound =
    {
      Explore.ep_name = "bound/uhci-hcd";
      ep_setup =
        (fun () ->
          Driver_set.register_defaults ();
          ignore (Decaf_workloads.Rig.plug "uhci-hcd");
          ignore
            (K.Sched.spawn ~name:"loader" (fun () ->
                 ignore
                   (Driver_core.insmod "uhci-hcd" ~mode:Driver_env.Decaf))));
      ep_check = (fun () -> []);
    }
  in
  let r = Explore.explore left_bound in
  match r.Explore.r_counterexamples with
  | [ cx ] ->
      let v = cx.Explore.cx_violation in
      check_str "the violation kind" "no-quiescence" v.Invariants.v_kind;
      check_bool
        (Printf.sprintf "names the binding still up: %s" v.Invariants.v_detail)
        true
        (Testutil.contains v.Invariants.v_detail "bound: uhci-hcd")
  | cxs ->
      Alcotest.failf "expected one no-quiescence counterexample, got %d"
        (List.length cxs)

(* --- checked-in counterexample replays ---------------------------------

   Each row is a minimized counterexample the explorer produced against
   the planted mutant (trace "" means the violation reproduces on the
   default schedule), plus the full discovery schedule, plus the same
   schedules replayed on the clean tree where they must be silent. *)

type replay_row = {
  rr_episode : string;
  rr_mutant : bool ref option;
  rr_trace : string;
  rr_expect : string option;  (* violation kind, None = must be clean *)
}

(* The full discovery schedules: the slice's ticks, the batch worker's
   flushes, then rmmod racing the irq and the batch timer delivering the
   notification rmmod left queued. *)
let ens1371_found =
  "loader,clock,loader,clock,loader,clock,loader,clock,loader,clock,loader,\
   clock,kworker/xpc-batch/0,clock,loader,unloader,irqgen,irqgen,clock,\
   kworker/xpc-batch/0"

let uhci_found =
  "loader,clock,clock,loader,clock,clock,clock,clock,kworker/xpc-batch/0,\
   loader,unloader,irqgen,irqgen,clock,kworker/xpc-batch/0"

let row ?mutant rr_episode rr_trace rr_expect =
  { rr_episode; rr_mutant = mutant; rr_trace; rr_expect }

let drop = K.Mutants.drop_unbind_drain

let replay_table =
  [
    row ~mutant:drop "rmmod-irq/ens1371" "" (Some "panic");
    row ~mutant:drop "rmmod-irq/ens1371" ens1371_found (Some "panic");
    row ~mutant:drop "rmmod-irq/uhci-hcd" "" (Some "panic");
    row ~mutant:drop "rmmod-irq/uhci-hcd" uhci_found (Some "panic");
    row "rmmod-irq/ens1371" "" None;
    row "rmmod-irq/ens1371" ens1371_found None;
    row "rmmod-irq/uhci-hcd" uhci_found None;
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
  let run () = Explore.replay (episode "rmmod-irq/ens1371") ens1371_found in
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

(* --- lock order --- *)

let test_bundled_conflict_free () =
  let module E = Decaf_experiments.Exploration in
  let edges =
    List.concat_map
      (fun r -> r.E.x_report.Explore.r_lock_edges)
      (E.run ~smoke:true ())
  in
  check_bool "no AB/BA pair in the dynamic lock order" false
    (List.exists (fun (a, b) -> List.mem (b, a) edges) edges)

(* One thread takes A then B, another B then A: no schedule deadlocks
   here, but the accumulated order graph holds a cycle. *)
let test_cycle_check () =
  K.Boot.boot ();
  let graph = Invariants.new_graph () in
  let m = Invariants.monitor graph in
  let nest outer inner () =
    let note o a = Invariants.on_event m (K.Ktrace.Lock o) a in
    note outer K.Ktrace.Acquire;
    note inner K.Ktrace.Acquire;
    note inner K.Ktrace.Release;
    note outer K.Ktrace.Release
  in
  ignore (K.Sched.spawn ~name:"path-a" (nest "spin:A#1" "spin:B#2"));
  check_bool "one order alone is no cycle" true
    (K.Sched.run ();
     Invariants.cycle_violation graph = None);
  ignore (K.Sched.spawn ~name:"path-b" (nest "spin:B#2" "spin:A#1"));
  K.Sched.run ();
  match Invariants.cycle_violation graph with
  | Some v ->
      check_str "kind" "lock-order" v.Invariants.v_kind;
      check_str "witness" "acquisition-order cycle: spin:A -> spin:B -> spin:A"
        v.Invariants.v_detail
  | None -> Alcotest.fail "AB/BA order not reported"

let () =
  Alcotest.run "decaf-check"
    [
      ( "explore",
        [
          Alcotest.test_case "catalog clean" `Quick test_catalog_clean;
          Alcotest.test_case "mutant: dropped unbind drain is caught" `Quick
            test_mutant_drop_drain;
          Alcotest.test_case "a binding left up never quiesces" `Quick
            test_no_quiescence;
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
          Alcotest.test_case "an AB/BA pair is a cycle" `Quick
            test_cycle_check;
        ] );
    ]
