(** The psmouse PS/2 mouse driver, native and decaf.

    The interrupt handler that pulls bytes off the i8042 stays in the
    kernel and, in streaming mode, assembles movement packets into input
    events. Device detection and protocol negotiation — reset, identify,
    sample-rate programming, stream enable — are the code the paper
    moved to Java; here they run in the decaf driver, blocking on the
    byte stream the kernel half delivers. *)

type t

val setup_device : unit -> Decaf_hw.Psmouse_hw.t

val packed : Driver_core.packed
(** For {!Driver_core.register}: registry name ["psmouse"], input bus
    ({!Singleton}). *)

val input_dev : t -> Decaf_kernel.Inputcore.t
val packets_handled : t -> int
val detected_id : t -> int
(** Device id reported during protocol negotiation (0 = plain PS/2). *)

val active : unit -> t option
(** The bound instance ({!Singleton.Make.active}). *)
