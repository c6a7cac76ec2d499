(** The kernel sound library: cards and PCM playback substreams.

    The paper modified the Linux sound libraries to guard driver callbacks
    with mutexes instead of spinlocks so that callbacks could block — and
    therefore run in the decaf driver (§3.1.3). The lock discipline here
    is selectable so tests can demonstrate why: with [`Spin] the library
    raises {!Sched.Would_block_in_atomic} as soon as a callback crosses to
    user level. *)

type lock_discipline = Lock_mutex | Lock_spin

type card

type pcm_ops = {
  pcm_open : unit -> (unit, int) result;
  pcm_close : unit -> unit;
  pcm_hw_params : rate:int -> channels:int -> sample_bits:int -> (unit, int) result;
  pcm_prepare : unit -> (unit, int) result;
  pcm_trigger : [ `Start | `Stop ] -> unit;
  pcm_pointer : unit -> int;  (** hardware playback position, bytes *)
}

type substream

val snd_card_new : string -> card
val snd_card_register : card -> int
(** Returns 0 on success — the function whose Jeannie stub the paper shows
    in Figure 2. *)

val snd_card_free : card -> unit
val card_registered : card -> bool

val set_lock_discipline : lock_discipline -> unit

val new_pcm : card -> buffer_bytes:int -> pcm_ops -> substream

val pcm_open : substream -> (unit, int) result
val pcm_close : substream -> unit

val pcm_set_params :
  substream -> rate:int -> channels:int -> sample_bits:int -> (unit, int) result

val pcm_prepare : substream -> (unit, int) result
val pcm_start : substream -> unit
val pcm_stop : substream -> unit

val pcm_write : substream -> int -> unit
(** Append [n] bytes of audio; blocks while the ring buffer is full. *)

val pcm_bytes_queued : substream -> int

val period_elapsed : substream -> unit
(** Called by the driver (from its interrupt handler) when the device
    finishes a period; refreshes the hardware pointer and wakes blocked
    writers. *)

val reset : unit -> unit
