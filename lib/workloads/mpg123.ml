module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc

type result = {
  seconds_played : float;
  cpu_utilization : float;
  underruns : int;
  periods : int;
  realtime_factor : float;
}

let pcm_byte_rate = 44_100 * 4
let chunk_bytes = 8_192

(* Decoding one chunk of MP3 into PCM costs real CPU. *)
let decode_cost = 120_000

let play ~substream ~model ~duration_ns =
  let t0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let saved0 = Xpc.Dispatch.overlap_saved_ns () in
  (match K.Sndcore.pcm_open substream with
  | Ok () -> ()
  | Error rc -> K.Panic.bug "mpg123: pcm open failed (%d)" rc);
  (match
     K.Sndcore.pcm_set_params substream ~rate:44_100 ~channels:2 ~sample_bits:16
   with
  | Ok () -> ()
  | Error rc -> K.Panic.bug "mpg123: hw_params failed (%d)" rc);
  (match K.Sndcore.pcm_prepare substream with
  | Ok () -> ()
  | Error rc -> K.Panic.bug "mpg123: prepare failed (%d)" rc);
  let total_bytes = pcm_byte_rate * duration_ns / 1_000_000_000 in
  (* deltas against the model's cumulative counters, so repeated plays
     over one device (PM cycles, soak phases) each measure their own
     stream rather than comparing against all-time totals *)
  let consumed0 = Hw.Ens1371_hw.consumed model in
  let underruns0 = Hw.Ens1371_hw.underruns model in
  let periods0 = Hw.Ens1371_hw.periods_played model in
  (* prime one buffer's worth, then start the DAC *)
  K.Clock.consume decode_cost;
  K.Sndcore.pcm_write substream (min chunk_bytes total_bytes);
  K.Sndcore.pcm_start substream;
  let written = ref (min chunk_bytes total_bytes) in
  while !written < total_bytes do
    let n = min chunk_bytes (total_bytes - !written) in
    K.Clock.consume decode_cost;
    K.Sndcore.pcm_write substream n;
    written := !written + n
  done;
  (* drain *)
  while Hw.Ens1371_hw.consumed model - consumed0 < total_bytes do
    K.Sched.sleep_ns 5_000_000
  done;
  K.Sndcore.pcm_stop substream;
  K.Sndcore.pcm_close substream;
  let seconds_played =
    float_of_int (Hw.Ens1371_hw.consumed model - consumed0)
    /. float_of_int pcm_byte_rate
  in
  let elapsed_ns = K.Clock.now () - t0 in
  (* Overlap model (see Netperf.mk): elapsed time already pays every
     upcall charge serialized; credit back what worker lanes overlap.
     >= 1 means the driver keeps up with the DAC. *)
  let saved_ns = Xpc.Dispatch.overlap_saved_ns () - saved0 in
  let effective_ns = max 0 (elapsed_ns - saved_ns) in
  {
    seconds_played;
    cpu_utilization = K.Clock.utilization ~since:t0 ~busy_since:busy0;
    underruns = Hw.Ens1371_hw.underruns model - underruns0;
    periods = Hw.Ens1371_hw.periods_played model - periods0;
    realtime_factor =
      (if effective_ns = 0 then 0.
       else seconds_played *. 1e9 /. float_of_int effective_ns);
  }

let pp ppf r =
  Format.fprintf ppf "%.2f s played, %.1f%% CPU, %d underruns" r.seconds_played
    (100. *. r.cpu_utilization)
    r.underruns
