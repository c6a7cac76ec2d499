(** The mpg123 workload: decode and play a 256 Kb/s MP3 through the
    sound driver (44.1 kHz, 16-bit stereo PCM). *)

type result = {
  seconds_played : float;
  cpu_utilization : float;
  underruns : int;
  periods : int;
  realtime_factor : float;
      (** seconds played per effective second (elapsed minus the
          dispatch work worker lanes overlap,
          {!Decaf_xpc.Dispatch.overlap_saved_ns} delta); >= 1 means
          playback keeps up with real time after paying upcall costs *)
}

val play :
  substream:Decaf_kernel.Sndcore.substream ->
  model:Decaf_hw.Ens1371_hw.t ->
  duration_ns:int ->
  result
(** Open the PCM, set 44.1 kHz stereo parameters, stream audio for the
    given virtual duration, then drain and close. *)

val pp : Format.formatter -> result -> unit
