module K = Decaf_kernel
module Io = K.Io

let reg_control = 0x00
let reg_status = 0x04
let reg_src = 0x10
let reg_codec = 0x14
let reg_frame_size = 0x24
let reg_pos = 0x2c
let ctrl_dac2_en = 1 lsl 5
let status_intr = 1 lsl 31
let status_dac2 = 1 lsl 1
let audio_period = K.Latency.path "audio.period"

type t = {
  irq_line : int;
  mutable region : Io.region option;
  codec : int array;
  mutable control : int;
  mutable status : int;
  mutable rate : int;
  mutable period_bytes : int;
  mutable buffered : int;
  mutable data_source : (unit -> int) option;
  mutable consumed : int;
  mutable underruns : int;
  mutable periods : int;
  mutable tick : K.Clock.event_id option;
}

let playing t = t.control land ctrl_dac2_en <> 0 && t.rate > 0

let period_ns t =
  (* 16-bit stereo: 4 bytes per frame at [rate] frames per second. *)
  let byte_rate = t.rate * 4 in
  Int.max 1 (t.period_bytes * 1_000_000_000 / byte_rate)

let rec schedule_tick t =
  t.tick <- Some (K.Clock.after (period_ns t) (fun () -> on_period t))

and on_period t =
  t.tick <- None;
  if playing t then begin
    let available =
      match t.data_source with
      | Some source -> source ()
      | None -> t.buffered
    in
    let take = Int.min available t.period_bytes in
    if take < t.period_bytes then t.underruns <- t.underruns + 1;
    if t.data_source = None then t.buffered <- t.buffered - take;
    t.consumed <- t.consumed + take;
    t.periods <- t.periods + 1;
    t.status <- t.status lor status_intr lor status_dac2;
    (* period-tick birth: completed when the driver services the period
       (Sndcore.period_elapsed) — the latency against [period_ns] is the
       deadline margin *)
    K.Clock.track_begin audio_period;
    K.Irq.raise_irq t.irq_line;
    schedule_tick t
  end

let start_stop t =
  match t.tick with
  | None when playing t && t.period_bytes > 0 -> schedule_tick t
  | Some ev when not (playing t) ->
      K.Clock.cancel ev;
      t.tick <- None
  | Some _ | None -> ()

let read t off (_w : Io.width) =
  match off with
  | _ when off = reg_control -> t.control
  | _ when off = reg_status -> t.status
  | _ when off = reg_src -> t.rate
  | _ when off = reg_frame_size -> t.period_bytes
  | _ when off = reg_pos -> t.consumed land 0xffff_ffff
  | _ -> 0

let write t off (_w : Io.width) v =
  match off with
  | _ when off = reg_control ->
      t.control <- v;
      start_stop t
  | _ when off = reg_status ->
      if v land status_dac2 <> 0 then begin
        t.status <- t.status land lnot status_dac2;
        if t.status land lnot status_intr = 0 then
          t.status <- t.status land lnot status_intr
      end
  | _ when off = reg_src ->
      t.rate <- v;
      start_stop t
  | _ when off = reg_codec -> t.codec.((v lsr 16) land 0x7f) <- v land 0xffff
  | _ when off = reg_frame_size -> t.period_bytes <- v
  | _ -> ()

let create ~io_base ~irq () =
  let t =
    {
      irq_line = irq;
      region = None;
      codec = Array.make 128 0;
      control = 0;
      status = 0;
      rate = 0;
      period_bytes = 0;
      buffered = 0;
      data_source = None;
      consumed = 0;
      underruns = 0;
      periods = 0;
      tick = None;
    }
  in
  t.region <-
    Some
      (Io.register_ports ~base:io_base ~len:0x40
         ~read:(fun off w -> read t off w)
         ~write:(fun off w v -> write t off w v));
  t

let destroy t =
  Option.iter K.Clock.cancel t.tick;
  Option.iter Io.release t.region

let dma_feed t n =
  if n < 0 then invalid_arg "Ens1371_hw.dma_feed";
  t.buffered <- t.buffered + n

let set_data_source t source = t.data_source <- Some source
let consumed t = t.consumed
let underruns t = t.underruns
let periods_played t = t.periods
let codec_value t reg = t.codec.(reg land 0x7f)
