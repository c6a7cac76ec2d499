module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc

type result = {
  throughput_mbps : float;
  goodput_mbps : float;
  cpu_utilization : float;
  elapsed_ns : int;
  packets : int;
}

(* Application-side per-message cost: system call plus copy. *)
let app_cost bytes = K.Cost.current.syscall_ns + (bytes / 4)

let mk ~t0 ~busy0 ~saved0 ~bytes ~packets =
  let elapsed_ns = K.Clock.now () - t0 in
  (* Overlap model: every nanosecond the dispatch engine charges to a
     lane is also consumed on the (single, serializing) virtual CPU, so
     [elapsed_ns] already prices the XPC work fully serialized. Goodput
     credits back the share an N-worker runtime overlaps — total lane
     time minus the critical path — rather than adding the critical path
     on top of time that already contains it. With one worker nothing is
     credited and goodput equals raw throughput. *)
  let saved_ns = Xpc.Dispatch.overlap_saved_ns () - saved0 in
  let effective_ns = max 0 (elapsed_ns - saved_ns) in
  let rate over =
    if over = 0 then 0. else float_of_int (bytes * 8) *. 1e3 /. float_of_int over
  in
  {
    throughput_mbps = rate elapsed_ns;
    goodput_mbps = rate effective_ns;
    cpu_utilization = K.Clock.utilization ~since:t0 ~busy_since:busy0;
    elapsed_ns;
    packets;
  }

let send ~netdev ~link ~duration_ns ~msg_bytes =
  let t0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let saved0 = Xpc.Dispatch.overlap_saved_ns () in
  let tx_bytes0 = Hw.Link.tx_bytes link and tx_frames0 = Hw.Link.tx_frames link in
  let deadline = t0 + duration_ns in
  (* one send buffer and skb, reused: nothing writes a frame once it is
     handed over (DESIGN §5) *)
  let skb = K.Netcore.Skb.of_bytes (Bytes.make msg_bytes '\000') in
  while K.Clock.now () < deadline do
    K.Clock.consume (app_cost msg_bytes);
    match K.Netcore.dev_queue_xmit netdev skb with
    | K.Netcore.Xmit_ok -> ()
    | K.Netcore.Xmit_busy ->
        (* ring full: back off briefly, as the socket layer would block *)
        K.Sched.sleep_ns 20_000
  done;
  mk ~t0 ~busy0 ~saved0
    ~bytes:(Hw.Link.tx_bytes link - tx_bytes0)
    ~packets:(Hw.Link.tx_frames link - tx_frames0)

let recv ~netdev ~link ~duration_ns ~msg_bytes =
  let t0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let saved0 = Xpc.Dispatch.overlap_saved_ns () in
  let received_bytes = ref 0 and received_packets = ref 0 in
  K.Netcore.set_rx_handler netdev (fun skb ->
      (* application consumes the data *)
      K.Clock.consume (app_cost skb.K.Netcore.Skb.len);
      received_bytes := !received_bytes + skb.K.Netcore.Skb.len;
      incr received_packets);
  let deadline = t0 + duration_ns in
  (* the peer saturates the wire, every frame from one buffer *)
  let frame = Bytes.make msg_bytes 'r' in
  let rec inject () =
    if K.Clock.now () < deadline then begin
      Hw.Link.inject link frame;
      (* pace at the wire rate: the link model serializes, so we only
         need to keep its queue primed *)
      ignore
        (K.Clock.after
           ((msg_bytes + 20) * 8 * 1_000_000_000 / Hw.Link.rate_bps link)
           inject)
    end
  in
  inject ();
  while K.Clock.now () < deadline do
    K.Sched.sleep_ns 1_000_000
  done;
  mk ~t0 ~busy0 ~saved0 ~bytes:!received_bytes ~packets:!received_packets

let pp ppf r =
  Format.fprintf ppf "%.1f Mb/s (%.1f good), %.1f%% CPU, %d packets"
    r.throughput_mbps r.goodput_mbps
    (100. *. r.cpu_utilization)
    r.packets
