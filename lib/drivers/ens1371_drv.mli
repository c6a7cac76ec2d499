(** The ens1371 (Ensoniq AudioPCI) sound driver, native and decaf.

    The period interrupt and the DMA feed stay in the kernel; codec and
    sample-rate-converter programming, mixer-control registration, and
    the PCM callbacks run in the decaf driver. Registering the card with
    the kernel sound library from user level goes through the Jeannie
    stub for [snd_card_register] — the paper's Figure 2. *)

type t

val vendor_id : int
val device_id : int

val setup_device :
  slot:string -> io_base:int -> irq:int -> unit -> Decaf_hw.Ens1371_hw.t

val insmod : ?dev:string -> Driver_env.t -> (t, int) result
(** Load the module, or bind one more device when it is already loaded
    (refcounted across instances); [dev] pins the bind to one slot. *)

val rmmod : t -> unit
val init_latency_ns : t -> int
val substream : t -> Decaf_kernel.Sndcore.substream
val card : t -> Decaf_kernel.Sndcore.card

val adapter_wire_bytes : int

val active : unit -> t option
(** The instance bound by the most recent successful [insmod], until its
    [rmmod] or the next {!Decaf_kernel.Boot.boot}. *)

val suspend : t -> unit
(** PM suspend: cross to the decaf driver and silence the DAC. *)

val resume : t -> unit
(** PM resume: re-initialize the AC97 codec, reprogram the sample-rate
    converter, and restart playback if it was running. *)

module Core : Driver_core.DRIVER with type t = t
(** Registry name ["ens1371"], PCI bus, the single (1274, 1371) id. *)
