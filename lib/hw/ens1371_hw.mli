(** Register-level model of an Ensoniq ES1371 (AudioPCI) sound chip,
    playback (DAC2) channel only.

    The device decodes a 64-byte port window (BAR 0). The driver programs
    a sample rate through the sample-rate converter, an AC97 codec volume,
    and a period size, then enables DAC2; the device then consumes audio
    from its DMA accumulator ({!dma_feed}) in period-sized bites at the
    configured byte rate, raising one interrupt per period. Underruns are
    counted when a period elapses with insufficient data. *)

type t

val reg_control : int
(** 0x00 (32-bit): bit 5 enables DAC2. *)

val reg_status : int
(** 0x04 (32-bit): bit 31 = any interrupt, bit 1 = DAC2 period interrupt;
    write 1 to bit 1 to acknowledge. *)

val reg_src : int
(** 0x10: DAC2 sample rate in Hz. *)

val reg_codec : int
(** 0x14: AC97 codec access — (register lsl 16) lor value. *)

val reg_frame_size : int
(** 0x24: period size in bytes. *)

val ctrl_dac2_en : int
val status_dac2 : int

val create : io_base:int -> irq:int -> unit -> t
val destroy : t -> unit

val dma_feed : t -> int -> unit
(** Make [n] more bytes of audio available to the DAC (the driver copied
    them into the DMA buffer). *)

val set_data_source : t -> (unit -> int) -> unit
(** True DMA semantics: the device reads straight from host memory, so
    at each period it asks the source how many bytes are available
    (beyond what it has already consumed) instead of using
    {!dma_feed}'s explicit accumulator. *)

val consumed : t -> int
val underruns : t -> int
val periods_played : t -> int
val codec_value : t -> int -> int
(** Last value written to the given AC97 codec register. *)
