(* Tests for the zero-copy shared-ring XPC path (Xpc.Ring): doorbell
   coalescing, bounded depth, kernel-side slot validation, failed
   doorbells, and the PM/unbind flush discipline through the unified
   driver model. *)

open Decaf_xpc
module K = Decaf_kernel
module Hw = Decaf_hw
module FI = K.Faultinject
module EO = Decaf_drivers.E1000_objects
module E1000_drv = Decaf_drivers.E1000_drv
module Driver_core = Decaf_drivers.Driver_core
module Driver_env = Decaf_drivers.Driver_env
module Scenario = Decaf_experiments.Scenario

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_thread f =
  ignore (K.Sched.spawn ~name:"test" f);
  K.Sched.run ()

let crossings () = (Channel.snapshot ()).Channel.kernel_user_calls

(* produced = consumed + rejected + discarded + pending: overflow slots
   were never accepted, so every accepted slot is accounted for exactly
   once. *)
let invariant () =
  let s = Ring.snapshot () in
  check "produced = consumed + rejected + discarded + pending"
    s.Ring.produced
    (s.Ring.consumed + s.Ring.rejected + s.Ring.discarded + Ring.pending ())

(* A standalone test ring: its own slot table, a real handle issued by
   the kernel tracker. *)
let test_guard =
  Codec.guard
    (Ring.table ~type_id:"test_slot" ~kinds:[ 1; 2 ] ~arg0:Guard.Non_negative
       ~arg1:(Guard.Range (0, 1)))

let fresh_ring ~handler () =
  let kt = Decaf_runtime.Runtime.kernel_tracker () in
  let addr = Addr.alloc ~size:64 in
  let handle = Objtracker.issue kt ~addr ~type_id:"test_slot" in
  let resolve h = Objtracker.resolve kt ~handle:h ~type_id:"test_slot" in
  let ring =
    Ring.create ~name:"t" ~target:Domain.Driver_lib ~guard:test_guard ~resolve
      ~handler ()
  in
  (ring, handle)

let slot ?(kind = 1) ~handle ?(arg0 = 0) ?(arg1 = 0) () =
  { Ring.kind; handle; arg0; arg1 }

(* --- doorbell coalescing --- *)

let test_watermark_doorbell_fifo () =
  K.Boot.boot ();
  let order = ref [] in
  in_thread (fun () ->
      let ring, handle =
        fresh_ring ~handler:(fun r -> order := r.Ring.arg0 :: !order) ()
      in
      let before = crossings () in
      for i = 1 to 64 do
        check_bool "slot accepted" true
          (Ring.produce ring (slot ~handle ~arg0:i ()))
      done;
      (* the watermark of 64 queued a doorbell on the workqueue; let it
         run *)
      K.Sched.sleep_ns 1_000_000;
      check "64 slots, one doorbell crossing" 1 (crossings () - before);
      check "nothing left occupied" 0 (Ring.occupancy ring));
  Alcotest.(check (list int))
    "FIFO order" (List.init 64 succ) (List.rev !order);
  let s = Ring.snapshot () in
  check "produced" 64 s.Ring.produced;
  check "consumed" 64 s.Ring.consumed;
  check "one doorbell" 1 s.Ring.doorbells;
  check "high water" 64 s.Ring.high_water;
  invariant ()

let test_timer_bounds_latency () =
  K.Boot.boot ();
  let ran = ref 0 in
  in_thread (fun () ->
      let ring, handle = fresh_ring ~handler:(fun _ -> incr ran) () in
      ignore (Ring.produce ring (slot ~handle ()));
      ignore (Ring.produce ring (slot ~handle ()));
      check "below watermark: still occupied" 2 (Ring.occupancy ring);
      check "no eager crossing" 0 !ran;
      (* the flush interval is 100 ms — an order looser than the
         batch queue's latency bound *)
      K.Sched.sleep_ns 150_000_000;
      check "timer rang the doorbell" 2 !ran;
      check "drained" 0 (Ring.occupancy ring));
  check "one doorbell for both slots" 1 (Ring.snapshot ()).Ring.doorbells;
  invariant ()

(* --- bounded depth --- *)

let test_overflow_drops_and_counts () =
  K.Boot.boot ();
  in_thread (fun () ->
      let ring, handle = fresh_ring ~handler:(fun _ -> ()) () in
      (* a tight producing loop, no yield: nothing drains the ring *)
      let accepted = ref 0 in
      for i = 1 to 266 do
        if Ring.produce ring (slot ~handle ~arg0:i ()) then incr accepted
      done;
      check "ring capped at its depth" 256 (Ring.occupancy ring);
      check "exactly depth slots accepted" 256 !accepted;
      let s = Ring.stats_of ring in
      check "excess slots dropped, not queued" 10 s.Ring.overflow;
      check "drops attributed to the ring's scope" 10
        (Boundary.dropped_for "t");
      invariant ();
      (* overflow is graceful degradation, not a fault: the bounded ring
         still delivers what it holds *)
      Ring.drain ring;
      check "the bounded ring still delivers" 256
        (Ring.stats_of ring).Ring.consumed);
  invariant ()

(* --- kernel-side slot validation --- *)

let test_hostile_slots_rejected () =
  K.Boot.boot ();
  let applied = ref 0 in
  in_thread (fun () ->
      let ring, handle = fresh_ring ~handler:(fun _ -> incr applied) () in
      (* a forged handle, an out-of-enum kind, an out-of-range arg —
         and one honest record *)
      ignore (Ring.produce ring (slot ~handle:0x4bad_f00d ()));
      ignore (Ring.produce ring (slot ~kind:9 ~handle ()));
      ignore (Ring.produce ring (slot ~handle ~arg1:5 ()));
      ignore (Ring.produce ring (slot ~handle ~arg0:7 ()));
      Ring.drain ring;
      check "only the honest slot reached the handler" 1 !applied;
      let s = Ring.stats_of ring in
      check "three slots rejected" 3 s.Ring.rejected;
      check "rejected slots also count as boundary drops" 3
        (Boundary.dropped_for "t");
      check_bool "validation layers counted their rejections" true
        (Boundary.totals.Boundary.rejected >= 3);
      check "drained regardless" 0 (Ring.occupancy ring));
  invariant ()

(* A slot's fields are checked in table order (kind, arg0, arg1) and the
   first bad one ends the check: a forged e1000 slot with an unknown kind
   costs its two kind checks (writability, then the enum), where an
   honest slot pays all six. *)
let test_slot_checked_in_table_order () =
  K.Boot.boot ();
  in_thread (fun () ->
      let handle = EO.adapter_handle (EO.fresh_kernel_adapter ()) in
      let ring =
        Ring.create ~name:"forged" ~target:Domain.Decaf_driver
          ~guard:EO.ring_guard ~resolve:EO.ring_resolve
          ~handler:EO.apply_ring_record ()
      in
      let drain fields =
        let t = Boundary.totals in
        let checks = t.Boundary.checks and rejected = t.Boundary.rejected in
        ignore (Ring.produce ring (Ring.forge EO.ring_table ~handle fields));
        Ring.drain ring;
        (t.Boundary.checks - checks, t.Boundary.rejected - rejected)
      in
      check "an honest slot pays every check" 6 (fst (drain []));
      let checks, rejected = drain [ ("kind", Codec.I 99) ] in
      check "a bad kind is rejected after its 2 checks" 2 checks;
      check "and rejected once" 1 rejected;
      let _, rejected = drain [ ("kind", Codec.I 99); ("arg1", Codec.I 7) ] in
      check "a bad kind and a bad arg1: rejected once" 1 rejected;
      check "the honest slot was consumed" 1
        (Ring.stats_of ring).Ring.consumed);
  invariant ()

(* --- failed doorbells --- *)

let test_failed_doorbell_keeps_slots () =
  K.Boot.boot ();
  let ran = ref 0 in
  in_thread (fun () ->
      let ring, handle = fresh_ring ~handler:(fun _ -> incr ran) () in
      ignore (Ring.produce ring (slot ~handle ()));
      ignore (Ring.produce ring (slot ~handle ()));
      FI.arm ~seed:7
        [
          FI.spec ~site:"xpc.ring.doorbell" ~kind:FI.Xpc_timeout
            ~trigger:FI.Always ();
        ];
      Ring.drain ring;
      (* the fault fires before the drain body runs: nothing consumed,
         nothing lost — the slots sit in shared memory for the retry *)
      check "no slot consumed" 0 !ran;
      check "slots still in place" 2 (Ring.occupancy ring);
      check "requeue counted" 1 (Ring.stats_of ring).Ring.requeues;
      FI.disarm ();
      (* the failure reprogrammed the timer to the short retry interval *)
      K.Sched.sleep_ns 5_000_000;
      check "retried drain delivered exactly once" 2 !ran;
      check "empty after retry" 0 (Ring.occupancy ring));
  check "exactly one doorbell succeeded" 1 (Ring.snapshot ()).Ring.doorbells;
  invariant ()

(* --- teardown --- *)

let test_destroy_discards_with_count () =
  K.Boot.boot ();
  in_thread (fun () ->
      let ring, handle = fresh_ring ~handler:(fun _ -> ()) () in
      for i = 1 to 3 do
        ignore (Ring.produce ring (slot ~handle ~arg0:i ()))
      done;
      Ring.destroy ring;
      check "leftover slots discarded, never silently" 3
        (Ring.stats_of ring).Ring.discarded;
      check "discards attributed to the ring's scope" 3
        (Boundary.dropped_for "t");
      check "unregistered" 0 (Ring.occupancy ring);
      check_bool "gone from the registry" true (Ring.find ~name:"t" = None));
  invariant ()

(* --- PM and surprise removal through the unified driver model --- *)

let setup_e1000 () =
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:Decaf_workloads.Rig.mac ~link ());
  link

let insmod_ok name =
  match Driver_core.insmod name ~mode:Driver_env.Decaf with
  | Ok () -> ()
  | Error rc -> Alcotest.failf "%s insmod failed: %d" name rc

let ok_or what = function
  | Ok () -> ()
  | Error rc -> Alcotest.failf "%s failed: %d" what rc

let java_view ka =
  Objtracker.find
    (Decaf_runtime.Runtime.java_tracker ())
    ~addr:(EO.adapter_handle ka) EO.adapter_key

let test_suspend_flushes_nonempty_ring () =
  Scenario.boot ();
  Ring.set_enabled true;
  let link = setup_e1000 () in
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      let t = Option.get (E1000_drv.active ()) in
      let ka = E1000_drv.kernel_adapter t in
      let nd = E1000_drv.netdev t in
      ok_or "e1000-open" (K.Netcore.open_dev nd);
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
           ~msg_bytes:1500);
      let ring = Option.get (Ring.find ~name:"e1000") in
      let kt = Decaf_runtime.Runtime.kernel_tracker () in
      let tracked_before = Objtracker.handle_count kt in
      let consumed_before = (Ring.stats_of ring).Ring.consumed in
      for _ = 1 to 3 do
        check_bool "stats slot accepted" true
          (Ring.produce ring (EO.ring_stats_record ka))
      done;
      (* the driver's own notify paths may have slots pending too *)
      let occ = Ring.occupancy ring in
      check_bool "ring non-empty going into suspend" true (occ >= 3);
      ok_or "e1000-suspend" (Driver_core.suspend "e1000");
      (* the PM flush drained the ring while the device was still
         powered: delivered, not discarded *)
      check "ring empty after suspend" 0 (Ring.occupancy ring);
      check "slots delivered to the user view" (consumed_before + occ)
        (Ring.stats_of ring).Ring.consumed;
      check "nothing discarded by a clean suspend" 0
        (Ring.stats_of ring).Ring.discarded;
      let j = Option.get (java_view ka) in
      check "user view caught up through the ring"
        (Codec.get ka.EO.fields EO.stats_gen)
        (Codec.get j.Decaf_drivers.Shared_struct.fields EO.stats_gen);
      check "ring slots leaked no tracker entries" tracked_before
        (Objtracker.handle_count kt);
      invariant ();
      (* resume resyncs the full view; the driver keeps working *)
      ok_or "e1000-resume" (Driver_core.resume "e1000");
      let r =
        Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
          ~msg_bytes:1500
      in
      check_bool "traffic flows after resume" true
        (r.Decaf_workloads.Netperf.packets > 0);
      let j = Option.get (java_view ka) in
      check "view still consistent after resume resync"
        (Codec.get ka.EO.fields EO.stats_gen)
        (Codec.get j.Decaf_drivers.Shared_struct.fields EO.stats_gen);
      Driver_core.rmmod "e1000";
      check_bool "ring unregistered at unbind" true
        (Ring.find ~name:"e1000" = None);
      check "machine-wide rings empty" 0 (Ring.pending ());
      invariant ())

let test_surprise_removal_discards_with_count () =
  Scenario.boot ();
  Ring.set_enabled true;
  let link = setup_e1000 () in
  Scenario.in_thread (fun () ->
      let kt = Decaf_runtime.Runtime.kernel_tracker () in
      (* the eject revokes every handle the binding was issued *)
      let handles_before_insmod = Objtracker.handle_count kt in
      insmod_ok "e1000";
      let t = Option.get (E1000_drv.active ()) in
      let ka = E1000_drv.kernel_adapter t in
      let nd = E1000_drv.netdev t in
      ok_or "e1000-open" (K.Netcore.open_dev nd);
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
           ~msg_bytes:1500);
      let ring = Option.get (Ring.find ~name:"e1000") in
      let dropped_before = Boundary.dropped_for "e1000" in
      for _ = 1 to 3 do
        ignore (Ring.produce ring (EO.ring_stats_record ka))
      done;
      (* the driver's own notify paths may have slots pending too *)
      let occ = Ring.occupancy ring in
      check_bool "ring non-empty going into eject" true (occ >= 3);
      (* the doorbell can no longer cross (the runtime died with the
         device): the eject path must drop the slots with count, never
         drain them into a dead binding or leak them *)
      FI.arm ~seed:7
        [
          FI.spec ~site:"xpc.ring.doorbell" ~kind:FI.Xpc_timeout
            ~trigger:FI.Always ();
        ];
      Driver_core.eject "e1000";
      FI.disarm ();
      (* everything occupied at eject — plus whatever the teardown path
         itself produced (the link-down event) — was discarded *)
      check_bool "undeliverable slots discarded at unbind" true
        ((Ring.stats_of ring).Ring.discarded >= occ);
      check "nothing was drained into the dead binding" 0
        (Ring.stats_of ring).Ring.consumed;
      check_bool "discards counted as boundary drops" true
        (Boundary.dropped_for "e1000" >= dropped_before + 3);
      check_bool "ring unregistered by surprise removal" true
        (Ring.find ~name:"e1000" = None);
      check "no slot left anywhere" 0 (Ring.pending ());
      check "zero leaked tracker entries" handles_before_insmod
        (Objtracker.handle_count kt);
      Alcotest.(check string)
        "driver removed" "removed"
        (Driver_core.lifecycle_name (Driver_core.state "e1000"));
      invariant ())

(* The doorbell-workqueue cursor is machine state too: the first doorbell
   of a fresh boot runs on the same worker whatever the last life rang. *)
let test_reboot_resets_doorbell_cursor () =
  let first_worker () =
    K.Boot.boot ();
    Dispatch.set_workers 4;
    let worker = ref "" in
    in_thread (fun () ->
        let ring, handle =
          fresh_ring ~handler:(fun _ -> worker := K.Sched.current_name ()) ()
        in
        (* fill to the watermark of 64: a doorbell on the first worker *)
        for _ = 1 to 64 do
          ignore (Ring.produce ring (slot ~handle ()))
        done;
        K.Sched.sleep_ns 1_000_000);
    !worker
  in
  let first = first_worker () in
  Alcotest.(check string) "same doorbell worker after reboot" first
    (first_worker ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_ring"
    [
      ( "ring",
        [
          tc "watermark doorbell is FIFO, one crossing"
            test_watermark_doorbell_fifo;
          tc "timer bounds latency" test_timer_bounds_latency;
        ] );
      ( "ring-bounds",
        [ tc "overflow drops and counts" test_overflow_drops_and_counts ] );
      ( "ring-adversarial",
        [
          tc "hostile slots rejected at drain" test_hostile_slots_rejected;
          tc "slot fields checked in table order"
            test_slot_checked_in_table_order;
        ] );
      ( "ring-faults",
        [
          tc "failed doorbell keeps slots intact"
            test_failed_doorbell_keeps_slots;
        ] );
      ( "ring-teardown",
        [
          tc "destroy discards with count" test_destroy_discards_with_count;
          tc "suspend flushes a non-empty ring"
            test_suspend_flushes_nonempty_ring;
          tc "surprise removal discards with count"
            test_surprise_removal_discards_with_count;
        ] );
      ( "ring-reboot",
        [
          tc "reboot resets the doorbell cursor"
            test_reboot_resets_doorbell_cursor;
        ] );
    ]
