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
  mutable rx_bytes : int;
  tx : (int -> unit) Frameq.t;
      (* toward the peer: each frame with the sender's stamp and its
         completion; a frame a flap ate is kept as [lost] *)
  rx : unit Frameq.t;  (* toward the NIC *)
  (* The completion event of each direction's newest frame. Completions
     fire in transmit order, so the event that fires always belongs to
     the oldest frame; a frame left over from before a reboot is
     recognised by its direction's newest event no longer pending. *)
  mutable tx_last : K.Clock.event_id;
  mutable rx_last : K.Clock.event_id;
  tx_fire : unit -> unit;
  rx_fire : unit -> unit;
}

(* Stands in for a frame a link flap ate: compared by address, so no
   real frame, even an empty one, is ever taken for it. *)
let lost = Bytes.create 0

(* The oldest frame has left the adapter: complete it, then hand it to
   the peer unless a flap ate it. It leaves the ring first, so whatever
   the completion transmits queues behind the frames still in flight. *)
let tx_done t () =
  let frame = Frameq.head t.tx and stamp = Frameq.head_stamp t.tx in
  let on_done = Frameq.head_tag t.tx in
  Frameq.drop t.tx;
  on_done stamp;
  if frame != lost then t.peer t frame

let rx_done t () =
  let frame = Frameq.head t.rx in
  Frameq.drop t.rx;
  t.nic_rx frame

(* A reboot dropped the completions of every frame still listed: its
   newest frame's event no longer pending means the ring is stale. *)
let purge_stale q last =
  if (not (Frameq.is_empty q)) && not (K.Clock.pending last) then Frameq.clear q

let create ~rate_bps () =
  let rec t =
    {
      rate_bps;
      nic_rx = ignore;
      peer = (fun _ _ -> ());
      tx_free_at = 0;
      rx_free_at = 0;
      tx_frames = 0;
      tx_bytes = 0;
      rx_bytes = 0;
      tx = Frameq.create ignore;
      rx = Frameq.create ();
      tx_last = K.Clock.no_event;
      rx_last = K.Clock.no_event;
      tx_fire = (fun () -> tx_done t ());
      rx_fire = (fun () -> rx_done t ());
    }
  in
  t

let connect t ~nic_rx = t.nic_rx <- nic_rx
let set_peer t peer = t.peer <- peer

let wire_time t len_bytes =
  (* ns to serialize the frame plus preamble and inter-frame gap. *)
  (len_bytes + 20) * 8 * 1_000_000_000 / t.rate_bps

(* A frame starts when the direction's wire is free. Its newest
   completion no longer pending means the wire is idle: within one life
   that event fired at [free_at] <= now, and after a reboot it belongs
   to the old life, whose occupancy the restarted clock must not wait
   out. *)
let start_at free_at last =
  if K.Clock.pending last then Int.max (K.Clock.now ()) free_at
  else K.Clock.now ()

let transmit t ~on_done ~stamp frame =
  let start = start_at t.tx_free_at t.tx_last in
  let finish = start + wire_time t (Bytes.length frame) in
  t.tx_free_at <- finish;
  t.tx_frames <- t.tx_frames + 1;
  t.tx_bytes <- t.tx_bytes + Bytes.length frame;
  (* A flap drops the frame in flight: the NIC sees a completed send but
     the peer never receives it. *)
  let flapped = K.Faultinject.fires ~site:"hw.link" K.Faultinject.Link_flap in
  purge_stale t.tx t.tx_last;
  Frameq.push t.tx (if flapped then lost else frame) stamp on_done;
  t.tx_last <- K.Clock.at finish t.tx_fire

let inject t frame =
  let start = start_at t.rx_free_at t.rx_last in
  let finish = start + wire_time t (Bytes.length frame) in
  t.rx_free_at <- finish;
  t.rx_bytes <- t.rx_bytes + Bytes.length frame;
  purge_stale t.rx t.rx_last;
  Frameq.push t.rx frame 0 ();
  t.rx_last <- K.Clock.at finish t.rx_fire

let tx_frames t = t.tx_frames
let tx_bytes t = t.tx_bytes
let rx_bytes t = t.rx_bytes
let rate_bps t = t.rate_bps
