(* Layer micro costs for the traced pass: each times one public function
   on inputs shaped like the workloads', and reports the median host ns
   per call over several batches. Each runs on a freshly booted machine
   with the workloads' XPC configuration. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module O = Decaf_drivers.E1000_objects

let batches = 7

(* [f n] performs n calls; one warm-up batch, then the median batch. *)
let ns_per_call ~n f =
  f n;
  Host.median
    (List.init batches (fun _ ->
         let t0 = Host.now_ns () in
         f n;
         float_of_int (Host.now_ns () - t0) /. float_of_int n))

let fresh = Meter.boot_machine

let in_thread f =
  fresh ();
  Decaf_experiments.Scenario.in_thread f

(* The fleet keeps about two events pending per port. *)
let clock_depth = 512

let clock_insert_fire () =
  fresh ();
  for i = 1 to clock_depth do
    ignore (K.Clock.at (max_int / 2 + i) ignore)
  done;
  ns_per_call ~n:20_000 (fun n ->
      for _ = 1 to n do
        ignore (K.Clock.after 1 ignore);
        ignore (K.Clock.advance_to_next_event ())
      done)

(* net.tx-like samples: a few us to a few hundred us *)
let latency_observe () =
  let h = K.Latency.create () in
  let v = Array.init 1024 (fun i -> 2_000 + (i * 7919 mod 500_000)) in
  ns_per_call ~n:200_000 (fun n ->
      for i = 1 to n do
        K.Latency.observe h v.(i land 1023)
      done)

let ktrace_note () =
  K.Ktrace.clear_hook ();
  let o = K.Ktrace.Queue "ring:e1000" in
  ns_per_call ~n:1_000_000 (fun n ->
      for _ = 1 to n do
        K.Ktrace.note o K.Ktrace.Signal
      done)

(* A watermark's worth of stats records, then one doorbell drain; the
   cost is per record. *)
let ring_produce_drain () =
  in_thread (fun () ->
      let ka = O.fresh_kernel_adapter () in
      let ring =
        Xpc.Ring.create ~name:"perfbench" ~target:Xpc.Domain.Decaf_driver
          ~guard:O.ring_guard ~resolve:O.ring_resolve
          ~handler:O.apply_ring_record ()
      in
      let per = 64 in
      ns_per_call ~n:(200 * per) (fun n ->
          for _ = 1 to n / per do
            for _ = 1 to per do
              ignore (Xpc.Ring.produce ring (O.ring_stats_record ka))
            done;
            Xpc.Ring.drain ring
          done))

let guard_check () =
  fresh ();
  ns_per_call ~n:200_000 (fun n ->
      for i = 1 to n do
        ignore (Xpc.Guard.int_field O.guard ~field:"msg_enable" (i land 0xffff))
      done)

(* 256 adapters' handles, as in the fleet *)
let objtracker_resolve () =
  in_thread (fun () ->
      let t = Decaf_runtime.Runtime.kernel_tracker () in
      let handles = Array.init 256 (fun _ -> O.adapter_handle (O.fresh_kernel_adapter ())) in
      let type_id = Xpc.Marshal_plan.type_id O.plan in
      ns_per_call ~n:200_000 (fun n ->
          for i = 1 to n do
            ignore (Xpc.Objtracker.resolve t ~handle:handles.(i land 255) ~type_id)
          done))

let xdr_marshal_e1000 () =
  fresh ();
  let ka = O.fresh_kernel_adapter () in
  ns_per_call ~n:20_000 (fun n ->
      for _ = 1 to n do
        ignore (O.marshal_to_user ka)
      done)

let channel_call () =
  in_thread (fun () ->
      ns_per_call ~n:20_000 (fun n ->
          for _ = 1 to n do
            Xpc.Channel.call ~target:Xpc.Domain.Decaf_driver ~payload_bytes:64
              ~reply_bytes:64 ignore
          done))

let combolock_fast () =
  in_thread (fun () ->
      let l = K.Sync.Combolock.create ~name:"perfbench" () in
      ns_per_call ~n:200_000 (fun n ->
          for _ = 1 to n do
            K.Sync.Combolock.with_kernel l ignore
          done))

(* Two threads yielding to each other: one switch per yield. *)
let sched_switch () =
  fresh ();
  ns_per_call ~n:20_000 (fun n ->
      let ping () =
        for _ = 1 to n / 2 do
          K.Sched.yield ()
        done
      in
      ignore (K.Sched.spawn ~name:"ping" ping);
      ignore (K.Sched.spawn ~name:"pong" ping);
      K.Sched.run ())

let all () =
  let r =
    [
      ("clock.insert_fire_ns", clock_insert_fire ());
      ("latency.observe_ns", latency_observe ());
      ("ktrace.note_ns", ktrace_note ());
      ("ring.produce_drain_ns", ring_produce_drain ());
      ("guard.check_ns", guard_check ());
      ("objtracker.resolve_ns", objtracker_resolve ());
      ("xdr.marshal_e1000_ns", xdr_marshal_e1000 ());
      ("channel.call_ns", channel_call ());
      ("combolock.fast_ns", combolock_fast ());
      ("sched.switch_ns", sched_switch ());
    ]
  in
  fresh ();
  r
