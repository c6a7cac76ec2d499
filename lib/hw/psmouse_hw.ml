module K = Decaf_kernel
module Io = K.Io

let input_event = K.Latency.path "input.event"
let data_port = 0x60
let status_port = 0x64
let status_obf = 0x01
let status_aux = 0x20
let cmd_write_aux = 0xd4
let cmd_enable_aux = 0xa8
let aux_irq = 12
let byte_gap_ns = 50_000 (* serial gap between queued bytes *)

type expecting = Nothing | Sample_rate | Resolution

type t = {
  mutable region60 : Io.region option;
  mutable region64 : Io.region option;
  output : int Queue.t;  (** bytes from the mouse, head = next to read *)
  mutable obf : bool;
  mutable current_byte : int;
  mutable route_to_aux : bool;
  mutable aux_enabled : bool;
  mutable streaming : bool;
  mutable rate : int;
  mutable resolution : int;
  mutable expecting : expecting;
  mutable packets : int;
}

(* Present the next queued byte in the output buffer and interrupt. *)
let rec pump t =
  if (not t.obf) && not (Queue.is_empty t.output) then begin
    t.current_byte <- Queue.pop t.output;
    t.obf <- true;
    K.Irq.raise_irq aux_irq
  end

and queue_bytes t bytes =
  List.iter (fun b -> Queue.push (b land 0xff) t.output) bytes;
  pump t

let mouse_command t b =
  match t.expecting with
  | Sample_rate ->
      t.rate <- b;
      t.expecting <- Nothing;
      queue_bytes t [ 0xfa ]
  | Resolution ->
      t.resolution <- b;
      t.expecting <- Nothing;
      queue_bytes t [ 0xfa ]
  | Nothing -> (
      match b with
      | 0xff ->
          (* reset: immediate ACK; BAT self-test completes ~30 ms later *)
          t.streaming <- false;
          t.rate <- 100;
          t.resolution <- 4;
          queue_bytes t [ 0xfa ];
          ignore
            (K.Clock.after 30_000_000 (fun () -> queue_bytes t [ 0xaa; 0x00 ]))
      | 0xf2 -> queue_bytes t [ 0xfa; 0x00 ]
      | 0xf3 ->
          t.expecting <- Sample_rate;
          queue_bytes t [ 0xfa ]
      | 0xe8 ->
          t.expecting <- Resolution;
          queue_bytes t [ 0xfa ]
      | 0xf4 ->
          t.streaming <- true;
          queue_bytes t [ 0xfa ]
      | 0xf5 ->
          t.streaming <- false;
          queue_bytes t [ 0xfa ]
      | _ -> queue_bytes t [ 0xfa ])

let read60 t (_w : Io.width) =
  if not t.obf then 0
  else begin
    let b = t.current_byte in
    t.obf <- false;
    if not (Queue.is_empty t.output) then
      ignore (K.Clock.after byte_gap_ns (fun () -> pump t));
    b
  end

let read64 t (_w : Io.width) =
  (if t.obf then status_obf else 0) lor if t.obf then status_aux else 0

let write60 t (_w : Io.width) v =
  if t.route_to_aux then begin
    t.route_to_aux <- false;
    mouse_command t v
  end

let write64 t (_w : Io.width) v =
  if v = cmd_write_aux then t.route_to_aux <- true
  else if v = cmd_enable_aux then t.aux_enabled <- true

let create () =
  let t =
    {
      region60 = None;
      region64 = None;
      output = Queue.create ();
      obf = false;
      current_byte = 0;
      route_to_aux = false;
      aux_enabled = false;
      streaming = false;
      rate = 100;
      resolution = 4;
      expecting = Nothing;
      packets = 0;
    }
  in
  t.region60 <-
    Some
      (Io.register_ports ~base:data_port ~len:1
         ~read:(fun _ w -> read60 t w)
         ~write:(fun _ w v -> write60 t w v));
  t.region64 <-
    Some
      (Io.register_ports ~base:status_port ~len:1
         ~read:(fun _ w -> read64 t w)
         ~write:(fun _ w v -> write64 t w v));
  t

let destroy t =
  Option.iter Io.release t.region60;
  Option.iter Io.release t.region64

let move t ~dx ~dy ~buttons =
  if t.streaming && t.aux_enabled then begin
    let clamp v = Int.max (-255) (Int.min 255 v) in
    let dx = clamp dx and dy = clamp dy in
    let flags =
      0x08 lor (buttons land 0x07)
      lor (if dx < 0 then 0x10 else 0)
      lor if dy < 0 then 0x20 else 0
    in
    t.packets <- t.packets + 1;
    (* one motion = one 3-byte packet = one input event: the birth is
       completed when the driver's sync reaches the input core *)
    K.Clock.track_begin input_event;
    queue_bytes t [ flags; dx land 0xff; dy land 0xff ]
  end

let streaming t = t.streaming
let sample_rate t = t.rate
let packets_sent t = t.packets
