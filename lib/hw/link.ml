module K = Decaf_kernel

type t = {
  rate_bps : int;
  mutable nic_rx : bytes -> unit;
  mutable peer : t -> bytes -> unit;
  (* Separate wire occupancy per direction (full duplex). *)
  mutable tx_free_at : int;
  mutable rx_free_at : int;
  mutable tx_frames : int;
  mutable tx_bytes : int;
  mutable rx_frames : int;
  mutable rx_bytes : int;
}

let create ~rate_bps () =
  {
    rate_bps;
    nic_rx = ignore;
    peer = (fun _ _ -> ());
    tx_free_at = 0;
    rx_free_at = 0;
    tx_frames = 0;
    tx_bytes = 0;
    rx_frames = 0;
    rx_bytes = 0;
  }

let connect t ~nic_rx = t.nic_rx <- nic_rx
let set_peer t peer = t.peer <- peer

let wire_time t len_bytes =
  (* ns to serialize the frame plus preamble and inter-frame gap. *)
  (len_bytes + 20) * 8 * 1_000_000_000 / t.rate_bps

let transmit t ?(on_done = fun () -> ()) frame =
  let start = Int.max (K.Clock.now ()) t.tx_free_at in
  let finish = start + wire_time t (Bytes.length frame) in
  t.tx_free_at <- finish;
  t.tx_frames <- t.tx_frames + 1;
  t.tx_bytes <- t.tx_bytes + Bytes.length frame;
  (* A flap drops the frame in flight: the NIC sees a completed send but
     the peer never receives it. *)
  let dropped = K.Faultinject.fires ~site:"hw.link" K.Faultinject.Link_flap in
  ignore
    (K.Clock.at finish (fun () ->
         on_done ();
         if not dropped then t.peer t frame))

let inject t frame =
  let start = Int.max (K.Clock.now ()) t.rx_free_at in
  let finish = start + wire_time t (Bytes.length frame) in
  t.rx_free_at <- finish;
  t.rx_frames <- t.rx_frames + 1;
  t.rx_bytes <- t.rx_bytes + Bytes.length frame;
  ignore (K.Clock.at finish (fun () -> t.nic_rx frame))

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let rx_frames t = t.rx_frames
let rx_bytes t = t.rx_bytes
let rate_bps t = t.rate_bps
