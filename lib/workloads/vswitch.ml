module K = Decaf_kernel
module Hw = Decaf_hw

type port = { netdev : K.Netcore.t; link : Hw.Link.t }

type result = {
  aggregate_mbps : float;
  min_mbps : float;
  mean_mbps : float;
  max_mbps : float;
  packets : int;
  elapsed_ns : int;
  per_port_mbps : float list;
}

(* Application-side per-message cost, as in {!Netperf}. *)
let app_cost bytes = K.Cost.current.syscall_ns + (bytes / 4)

(* Each port's flow is a clock-event chain, not a thread: a fleet of
   hundreds of generators paced by [Sched] threads would spend the whole
   virtual budget on context switches and measure the scheduler, not the
   drivers.

   The application cost is charged against a shared virtual-CPU grant
   ([cpu_free_at]) instead of [Clock.consume]: consume delivers due
   events nested inside the consuming frame, which is right for
   interrupt handlers but traps an unbounded cascade of sender steps on
   the stack once the fleet saturates the CPU — the trapped chains
   stall until the run ends and fairness collapses. With the grant, a
   sender that fires while the CPU is busy requeues itself at the grant
   time; simultaneous waiters fire in arrival order, so contended ports
   round-robin and saturation shows up as uniform slowdown.

   Every message is sent from one payload and one skb built per run, as
   netperf reuses its send buffer: nothing writes a frame after handing
   it over (DESIGN §5). Each port's send/pump pair is built once per
   run, so a message allocates no closure. *)
let run ~ports ~duration_ns ~msg_bytes =
  if ports = [] then invalid_arg "Vswitch.run: no ports";
  let t0 = K.Clock.now () in
  let deadline = t0 + duration_ns in
  let tx0 =
    List.map (fun p -> (Hw.Link.tx_bytes p.link, Hw.Link.tx_frames p.link)) ports
  in
  (* A full device ring means the socket layer would block the sender;
     poll again well past the NIC's interrupt-coalescing latency rather
     than spending the virtual CPU on failed retries. *)
  let busy_backoff_ns = 100_000 in
  let cpu_free_at = ref 0 in
  let cost = app_cost msg_bytes in
  let skb = K.Netcore.Skb.of_bytes (Bytes.make msg_bytes '\000') in
  let flow p =
    let gap =
      Int.max cost ((msg_bytes + 20) * 8 * 1_000_000_000 / Hw.Link.rate_bps p.link)
    in
    let rec send () =
      if K.Clock.now () < deadline then
        if K.Netcore.is_up p.netdev then
          match K.Netcore.dev_queue_xmit p.netdev skb with
          | K.Netcore.Xmit_ok -> ignore (K.Clock.after gap pump)
          | K.Netcore.Xmit_busy -> ignore (K.Clock.after busy_backoff_ns pump)
    (* Book the next free CPU grant at enqueue time — a ticket, not a
       retry loop: waking every waiter per grant and letting all but one
       requeue costs hundreds of events per message at 256 ports. *)
    and pump () =
      let now = K.Clock.now () in
      if now < deadline then begin
        let slot = Int.max now !cpu_free_at in
        cpu_free_at := slot + cost;
        if slot > now then ignore (K.Clock.after (slot - now) send) else send ()
      end
    in
    pump
  in
  (* stagger the starts so the flows interleave instead of arriving as
     one synchronized burst every wire gap *)
  List.iteri (fun i p -> ignore (K.Clock.after (1 + (i * 97)) (flow p))) ports;
  while K.Clock.now () < deadline do
    K.Sched.sleep_ns 1_000_000
  done;
  let elapsed_ns = K.Clock.now () - t0 in
  let per_port =
    List.map2
      (fun p (b0, _) ->
        let bytes = Hw.Link.tx_bytes p.link - b0 in
        if elapsed_ns = 0 then 0.
        else float_of_int (bytes * 8) *. 1e3 /. float_of_int elapsed_ns)
      ports tx0
  in
  let packets =
    List.fold_left2
      (fun acc p (_, f0) -> acc + (Hw.Link.tx_frames p.link - f0))
      0 ports tx0
  in
  let total = List.fold_left ( +. ) 0. per_port in
  let n = float_of_int (List.length per_port) in
  {
    aggregate_mbps = total;
    min_mbps = List.fold_left min infinity per_port;
    mean_mbps = total /. n;
    max_mbps = List.fold_left max 0. per_port;
    packets;
    elapsed_ns;
    per_port_mbps = per_port;
  }

let pp ppf r =
  Format.fprintf ppf
    "%.1f Mb/s aggregate over %d ports (min %.1f / mean %.1f / max %.1f), %d packets"
    r.aggregate_mbps
    (List.length r.per_port_mbps)
    r.min_mbps r.mean_mbps r.max_mbps r.packets
