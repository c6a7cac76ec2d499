(** Model of an i8042 keyboard controller with a PS/2 mouse on the AUX
    port.

    The controller decodes ports 0x60 (data) and 0x64 (status/command).
    The mouse speaks the standard PS/2 protocol: reset (0xFF → ACK, BAT,
    id), identify (0xF2), set sample rate (0xF3), set resolution (0xE8),
    enable streaming (0xF4). In streaming mode each call to {!move}
    queues a three-byte movement packet; every queued byte raises IRQ 12
    when it reaches the output buffer. *)

type t

val data_port : int  (* 0x60 *)
val status_port : int  (* 0x64 *)

val status_obf : int
(** Output buffer full. *)

val cmd_write_aux : int
(** 0xD4: route the next data-port write to the mouse. *)

val cmd_enable_aux : int
(** 0xA8. *)

val aux_irq : int
(** IRQ 12. *)

val byte_gap_ns : int
(** Serial gap between queued bytes reaching the output buffer. *)

val create : unit -> t
(** Claims ports 0x60 and 0x64 and IRQ 12 wiring. *)

val destroy : t -> unit

val move : t -> dx:int -> dy:int -> buttons:int -> unit
(** Generate a movement/button report (dropped unless streaming is
    enabled, as on real hardware). *)

val streaming : t -> bool
val sample_rate : t -> int
val packets_sent : t -> int
