(** The psmouse PS/2 mouse driver, native and decaf.

    The interrupt handler that pulls bytes off the i8042 stays in the
    kernel and, in streaming mode, assembles movement packets into input
    events. Device detection and protocol negotiation — reset, identify,
    sample-rate programming, stream enable — are the code the paper
    moved to Java; here they run in the decaf driver, blocking on the
    byte stream the kernel half delivers. *)

type t

val setup_device : unit -> Decaf_hw.Psmouse_hw.t

val insmod : Driver_env.t -> (t, int) result
val rmmod : t -> unit
val init_latency_ns : t -> int
val input_dev : t -> Decaf_kernel.Inputcore.t
val packets_handled : t -> int
val detected_id : t -> int
(** Device id reported during protocol negotiation (0 = plain PS/2). *)

val active : unit -> t option
(** The instance bound by the most recent successful [insmod], until its
    [rmmod] or the next {!Decaf_kernel.Boot.boot}. *)

val suspend : t -> unit
(** PM suspend: cross to the decaf driver and disable data reporting
    (0xF5), returning the byte channel to the init phase. *)

val resume : t -> unit
(** PM resume: discard bytes queued across the suspend and re-enable
    streaming (0xF4). *)

module Core : Driver_core.DRIVER with type t = t
(** Registry name ["psmouse"], input bus (no ids: the AUX port is not
    enumerable). *)
