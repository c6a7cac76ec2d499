module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc

type result = {
  events_delivered : int;
  packets : int;
  cpu_utilization : float;
  elapsed_ns : int;
  event_rate_hz : float;
}

let report_interval_ns = 10_000_000 (* 100 reports per second *)

let run ~model ~input ~duration_ns =
  let t0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let saved0 = Xpc.Dispatch.overlap_saved_ns () in
  let packets0 = Hw.Psmouse_hw.packets_sent model in
  let events = ref 0 in
  K.Inputcore.set_handler input (fun _ev ->
      (* the X server processes the event *)
      K.Clock.consume 2_000;
      incr events);
  let deadline = t0 + duration_ns in
  let i = ref 0 in
  while K.Clock.now () < deadline do
    incr i;
    let click = !i mod 50 = 0 in
    Hw.Psmouse_hw.move model ~dx:(1 + (!i mod 5)) ~dy:(-(!i mod 3))
      ~buttons:(if click then 1 else 0);
    K.Sched.sleep_ns report_interval_ns
  done;
  K.Sched.sleep_ns 1_000_000;
  let elapsed_ns = K.Clock.now () - t0 in
  (* Overlap model (see Netperf.mk): elapsed time already contains every
     dispatch charge serialized; credit back the share that independent
     worker lanes would have overlapped. *)
  let saved_ns = Xpc.Dispatch.overlap_saved_ns () - saved0 in
  let effective_ns = max 0 (elapsed_ns - saved_ns) in
  {
    events_delivered = !events;
    packets = Hw.Psmouse_hw.packets_sent model - packets0;
    cpu_utilization = K.Clock.utilization ~since:t0 ~busy_since:busy0;
    elapsed_ns;
    event_rate_hz =
      (if effective_ns = 0 then 0.
       else float_of_int !events *. 1e9 /. float_of_int effective_ns);
  }

let pp ppf r =
  Format.fprintf ppf "%d packets, %d events, %.2f%% CPU" r.packets
    r.events_delivered
    (100. *. r.cpu_utilization)
