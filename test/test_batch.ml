(* Tests for the batched-XPC deferred-call queue (Xpc.Batch) and the
   dirty-field delta marshaling it composes with. *)

open Decaf_xpc
module K = Decaf_kernel
module O = Decaf_drivers.Rtl8139_objects
module Plan = Marshal_plan

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let in_thread f =
  ignore (K.Sched.spawn ~name:"test" f);
  K.Sched.run ()

let crossings () = (Channel.snapshot ()).Channel.kernel_user_calls

(* --- batching on: one crossing, FIFO delivery --- *)

let test_doorbell_flush_fifo () =
  K.Boot.boot ();
  Batch.set_enabled true;
  let order = ref [] in
  in_thread (fun () ->
      for i = 1 to 5 do
        Batch.post ~target:Domain.Driver_lib ~payload_bytes:8 ~context:"t"
          (fun () ->
            Alcotest.(check string)
              "thunk runs in the target domain" "driver-library"
              (Domain.to_string (Domain.current ()));
            order := i :: !order)
      done;
      check "queued, not yet run" 5 (Batch.pending ());
      let before = crossings () in
      Batch.doorbell ();
      check "five deferred calls, one crossing" 1 (crossings () - before));
  Alcotest.(check (list int)) "FIFO order" [ 1; 2; 3; 4; 5 ] (List.rev !order);
  let st = Batch.stats () in
  check "posted" 5 st.Batch.posted;
  check "delivered" 5 st.Batch.delivered;
  check "one flush" 1 st.Batch.flush_crossings;
  check "max batch" 5 st.Batch.max_batch;
  check "nothing left" 0 (Batch.pending ())

let test_same_domain_runs_inline () =
  K.Boot.boot ();
  Batch.set_enabled true;
  in_thread (fun () ->
      Domain.with_domain Domain.Driver_lib (fun () ->
          let ran = ref false in
          Batch.post ~target:Domain.Driver_lib (fun () -> ran := true);
          check_bool "same-domain post runs immediately" true !ran;
          check "nothing queued" 0 (Batch.pending ());
          check "no crossing" 0 (crossings ())))

let test_watermark_forces_flush () =
  K.Boot.boot ();
  Batch.set_enabled true;
  in_thread (fun () ->
      for i = 1 to 31 do
        ignore i;
        Batch.post ~target:Domain.Driver_lib ~payload_bytes:4 (fun () -> ())
      done;
      K.Sched.sleep_ns 1_000_000;
      check "below the watermark of 32: still queued" 31 (Batch.pending ());
      Batch.post ~target:Domain.Driver_lib ~payload_bytes:4 (fun () -> ());
      (* the watermark queued a flush on the workqueue; let it run *)
      K.Sched.sleep_ns 1_000_000;
      let st = Batch.stats () in
      check "flushed by watermark, no doorbell" 32 st.Batch.delivered;
      check "one flush crossing" 1 st.Batch.flush_crossings)

let test_timer_bounds_latency () =
  K.Boot.boot ();
  Batch.set_enabled true;
  in_thread (fun () ->
      Batch.post ~target:Domain.Driver_lib (fun () -> ());
      Batch.post ~target:Domain.Driver_lib (fun () -> ());
      check "below watermark: still queued" 2 (Batch.pending ());
      (* the flush interval is 10 ms *)
      K.Sched.sleep_ns 20_000_000;
      let st = Batch.stats () in
      check "timer flushed the queue" 2 st.Batch.delivered;
      check "one flush crossing" 1 st.Batch.flush_crossings;
      check "nothing pending" 0 (Batch.pending ()))

(* --- batching off: the measurement baseline pays per-call crossings *)

let test_disabled_pays_per_call () =
  K.Boot.boot ();
  Batch.set_enabled false;
  in_thread (fun () ->
      let before = crossings () in
      for i = 1 to 3 do
        ignore i;
        Batch.post ~target:Domain.Driver_lib ~payload_bytes:16
          ~context:"stats_sync" (fun () -> ())
      done;
      K.Sched.sleep_ns 1_000_000;
      let st = Batch.stats () in
      check "delivered promptly" 3 st.Batch.delivered;
      check "one crossing each" 3 st.Batch.single_crossings;
      check "no batched flushes" 0 st.Batch.flush_crossings;
      check "three crossings paid" 3 (crossings () - before))

(* --- fault injection on the flush crossing: no drop, no duplicate --- *)

let test_flush_timeout_requeues_intact () =
  K.Boot.boot ();
  Batch.set_enabled true;
  let order = ref [] in
  let note i () = order := i :: !order in
  in_thread (fun () ->
      K.Faultinject.arm ~seed:7
        [
          K.Faultinject.spec ~site:"xpc.batch.flush"
            ~kind:K.Faultinject.Xpc_timeout ~trigger:K.Faultinject.Always ();
        ];
      for i = 1 to 3 do
        Batch.post ~target:Domain.Driver_lib ~context:"t" (note i)
      done;
      Batch.doorbell ();
      (* the fault fires before the batch body runs: nothing delivered,
         nothing lost *)
      let st = Batch.stats () in
      check "nothing delivered" 0 st.Batch.delivered;
      check "batch requeued" 3 (Batch.pending ());
      check "requeue counted" 1 st.Batch.requeues;
      check_bool "no thunk ran" true (!order = []);
      (* a call posted after the failed flush lands behind the requeued
         batch *)
      Batch.post ~target:Domain.Driver_lib ~context:"t" (note 4);
      K.Faultinject.disarm ();
      Batch.doorbell ();
      let st = Batch.stats () in
      check "all delivered exactly once" 4 st.Batch.delivered;
      check "queue drained" 0 (Batch.pending ()));
  Alcotest.(check (list int))
    "original order preserved across the requeue" [ 1; 2; 3; 4 ]
    (List.rev !order)

let test_flush_retried_to_success () =
  K.Boot.boot ();
  Batch.set_enabled true;
  let ran = ref 0 in
  in_thread (fun () ->
      K.Faultinject.arm ~seed:7
        [
          K.Faultinject.spec ~site:"xpc.batch.flush"
            ~kind:K.Faultinject.Xpc_timeout
            ~trigger:(K.Faultinject.Span (1, 1))
            ();
        ];
      Batch.post ~target:Domain.Driver_lib (fun () -> incr ran);
      Batch.post ~target:Domain.Driver_lib (fun () -> incr ran);
      Batch.doorbell ();
      K.Faultinject.disarm ());
  (* the flush crossing is idempotent, so Channel retried it: the first
     attempt timed out, the second delivered the batch once *)
  check "delivered exactly once" 2 !ran;
  let st = Batch.stats () in
  check "no requeue needed" 0 st.Batch.requeues;
  check "one flush" 1 st.Batch.flush_crossings;
  let ch = Channel.stats () in
  check "the timeout was charged" 1 ch.Channel.failures;
  check "and retried" 1 ch.Channel.retries

(* A flush that fails on every attempt is not stranded: the timer is
   reprogrammed to the short retry, which delivers the batch once. *)
let test_failed_flush_retried_by_timer () =
  K.Boot.boot ();
  Batch.set_enabled true;
  let ran = ref 0 in
  in_thread (fun () ->
      K.Faultinject.arm ~seed:7
        [
          K.Faultinject.spec ~site:"xpc.batch.flush"
            ~kind:K.Faultinject.Xpc_timeout
            ~trigger:(K.Faultinject.Span (1, 3))
            ();
        ];
      Batch.post ~target:Domain.Driver_lib (fun () -> incr ran);
      Batch.post ~target:Domain.Driver_lib (fun () -> incr ran);
      K.Sched.sleep_ns 50_000_000;
      K.Faultinject.disarm ());
  check "both calls ran exactly once" 2 !ran;
  check "nothing pending" 0 (Batch.pending ());
  let st = Batch.stats () in
  check "the timed-out flush was requeued once" 1 st.Batch.requeues;
  check "the retry delivered in one crossing" 1 st.Batch.flush_crossings

(* --- queue bound: graceful degradation against a flooding driver --- *)

let test_queue_bound_drops () =
  K.Boot.boot ();
  Batch.set_enabled true;
  Guard.configure ~max_batch_queue:4 ();
  Fun.protect
    ~finally:(fun () -> Guard.reset ())
    (fun () ->
      in_thread (fun () ->
          (* a tight posting loop, no yield: nothing drains the queue *)
          for i = 1 to 10 do
            ignore i;
            Batch.post ~target:Domain.Driver_lib ~payload_bytes:8
              ~context:"flood" (fun () -> ())
          done;
          check "queue capped at the bound" 4 (Batch.pending ());
          let st = Batch.stats () in
          check "excess posts dropped, not queued" 6 st.Batch.dropped;
          check_bool "drops are counted machine-wide" true
            (Boundary.totals.Boundary.dropped >= 6);
          (* dropping is silent degradation: posting context may be an
             interrupt, where a boundary fault could not be supervised *)
          Batch.doorbell ();
          check "the bounded batch still delivers" 4
            (Batch.stats ()).Batch.delivered))

(* --- forged delta acknowledgements --- *)

let test_forged_ack_rejected () =
  K.Boot.boot ();
  let t = Plan.Dirty.create ~owner:"nic" 1 in
  Plan.Dirty.mark t 0;
  let upto = Plan.Dirty.snapshot t in
  (* an ack above the issued high-water mark was never snapshotted: a
     hostile runtime trying to flush marks it never saw *)
  check_bool "forged ack raises a boundary fault" true
    (try
       Plan.Dirty.acknowledge t ~upto:(upto + 3);
       false
     with Boundary.Boundary_violation v ->
       v.type_id = "nic" && v.field = "ack");
  check_bool "marks survive the rejected ack" true (Plan.Dirty.test t 0);
  Plan.Dirty.acknowledge t ~upto;
  check "honest ack still flushes" 0 (Plan.Dirty.pending t)

let test_survives_reboot () =
  K.Boot.boot ();
  Batch.set_enabled true;
  in_thread (fun () ->
      Batch.post ~target:Domain.Driver_lib (fun () -> ());
      Batch.drain ());
  check "first life delivered" 1 (Batch.stats ()).Batch.delivered;
  (* reboot: the old workqueue thread and timer died with the scheduler;
     boot makes Batch forget them and build fresh ones *)
  K.Boot.boot ();
  Batch.set_enabled true;
  let ran = ref false in
  in_thread (fun () ->
      Batch.post ~target:Domain.Driver_lib (fun () -> ran := true);
      Batch.drain ());
  check_bool "fresh infrastructure after reboot" true !ran

(* The cursor that picks a flush workqueue is machine state: the first
   post of a fresh boot runs on the same worker whatever the last life
   posted. *)
let test_reboot_resets_flush_cursor () =
  let first_worker () =
    K.Boot.boot ();
    Dispatch.set_workers 4;
    let worker = ref "" in
    in_thread (fun () ->
        Batch.post ~target:Domain.Driver_lib (fun () ->
            worker := K.Sched.current_name ()));
    !worker
  in
  let first = first_worker () in
  Alcotest.(check string) "same flush worker after reboot" first
    (first_worker ())

(* --- delta marshaling: kernel -> user --- *)

let sync_to_user k j_ref =
  (* the driver-side protocol: snapshot before marshal, acknowledge only
     after the crossing delivered *)
  let upto = O.user_view_mark k in
  let payload = O.marshal_to_user k in
  let j = (O.unmarshal_at_user payload k).Decaf_drivers.Shared_struct.fields in
  O.ack_user_view k ~upto;
  j_ref := Some j;
  (j, Bytes.length payload)

let test_delta_kernel_to_user () =
  K.Boot.boot ();
  Plan.set_delta_enabled true;
  let k = O.fresh_kernel_nic () in
  Codec.set k.O.fields O.msg_enable 7;
  Codec.set k.O.fields O.mc_filter [| 0xaa; 0xbb |];
  let j_ref = ref None in
  (* first crossing: the user side has no view yet, so the payload is a
     full image regardless of delta mode *)
  let j, first_len = sync_to_user k j_ref in
  check "first crossing is full-size" O.wire_size first_len;
  check "msg_enable arrived" 7 (Codec.get j O.msg_enable);
  check "mc_filter arrived" 0xaa (Codec.get j O.mc_filter).(0);
  (* kernel writes one field; the next crossing carries only it *)
  Codec.set k.O.fields O.rx_dropped (Codec.get k.O.fields O.rx_dropped + 1);
  Codec.set_quiet j O.msg_enable 999 (* sentinel: must NOT be overwritten *);
  let j', delta_len = sync_to_user k j_ref in
  check_bool "same user object updated in place" true (j' == j);
  check_bool "delta smaller than full image" true (delta_len < O.wire_size);
  check "written field visible user-side" 1 (Codec.get j O.rx_dropped);
  check "unwritten field not re-copied" 999 (Codec.get j O.msg_enable);
  (* nothing written since the acknowledge: an empty delta *)
  let _, idle_len = sync_to_user k j_ref in
  check_bool "idle resync smaller still" true (idle_len <= delta_len);
  check "no pending marks" 0 (Plan.Dirty.pending (Codec.dirty k.O.fields))

let test_delta_user_to_kernel () =
  K.Boot.boot ();
  Plan.set_delta_enabled true;
  let k = O.fresh_kernel_nic () in
  let j = O.unmarshal_at_user (O.marshal_to_user k) k in
  Codec.set j.Decaf_drivers.Shared_struct.fields O.msg_enable 5;
  O.unmarshal_at_kernel (O.marshal_to_kernel j) k;
  check "user write reached the kernel" 5 (Codec.get k.O.fields O.msg_enable);
  (* no further user writes: the reply carries nothing, so a kernel-side
     value set meanwhile survives *)
  Codec.set_quiet k.O.fields O.msg_enable 42;
  O.unmarshal_at_kernel (O.marshal_to_kernel j) k;
  check "unwritten field not replayed" 42 (Codec.get k.O.fields O.msg_enable)

let test_dirty_mark_during_crossing_survives_ack () =
  (* an interrupt writing a field while the crossing is in flight must
     not have its mark eaten by the post-crossing acknowledge *)
  let t = Plan.Dirty.create 2 in
  Plan.Dirty.mark t 0;
  let upto = Plan.Dirty.snapshot t in
  Plan.Dirty.mark t 1;
  Plan.Dirty.acknowledge t ~upto;
  check_bool "field carried by the crossing acked" false (Plan.Dirty.test t 0);
  check_bool "field written mid-crossing still dirty" true
    (Plan.Dirty.test t 1);
  check "one mark left" 1 (Plan.Dirty.pending t)

let test_full_mode_ignores_dirty_state () =
  K.Boot.boot ();
  let k = O.fresh_kernel_nic () in
  let j = O.unmarshal_at_user (O.marshal_to_user k) k in
  ignore j;
  (* with delta off, repeat marshals stay full-size even though nothing
     is dirty *)
  check "full image every time" O.wire_size
    (Bytes.length (O.marshal_to_user k))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_batch"
    [
      ( "batch",
        [
          tc "doorbell flush is FIFO, one crossing" test_doorbell_flush_fifo;
          tc "same-domain post runs inline" test_same_domain_runs_inline;
          tc "watermark forces a flush" test_watermark_forces_flush;
          tc "timer bounds latency" test_timer_bounds_latency;
          tc "disabled mode pays per call" test_disabled_pays_per_call;
        ] );
      ( "batch-faults",
        [
          tc "flush timeout requeues intact" test_flush_timeout_requeues_intact;
          tc "flush retried to success" test_flush_retried_to_success;
          tc "failed flush retried by the timer"
            test_failed_flush_retried_by_timer;
          tc "survives reboot" test_survives_reboot;
          tc "reboot resets the flush cursor" test_reboot_resets_flush_cursor;
        ] );
      ( "batch-bounds",
        [ tc "queue bound drops excess posts" test_queue_bound_drops ] );
      ( "delta-adversarial",
        [ tc "forged ack rejected" test_forged_ack_rejected ] );
      ( "delta",
        [
          tc "kernel write visible, unwritten not re-copied"
            test_delta_kernel_to_user;
          tc "user to kernel" test_delta_user_to_kernel;
          tc "mid-crossing write survives ack"
            test_dirty_mark_during_crossing_survives_ack;
          tc "full mode ignores dirty state" test_full_mode_ignores_dirty_state;
        ] );
    ]
