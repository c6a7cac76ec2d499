(** A rate-limited Ethernet link with a remote peer.

    The peer plays the rôle of netperf's remote machine: it can sink
    transmitted frames, echo them, or inject traffic toward the NIC.
    Serialization delay caps throughput at the configured line rate.

    Each direction keeps its frames in flight in a ring and schedules
    one prebuilt callback per frame, so a frame allocates nothing on the
    wire. Frames finish in the order they were sent. A {!Decaf_kernel.Boot.boot}
    drops their pending completions, and a frame still on the wire at a
    reboot is never delivered after it. *)

type t

val create : rate_bps:int -> unit -> t

val connect : t -> nic_rx:(bytes -> unit) -> unit
(** Attach the NIC model's receive entry point. *)

val set_peer : t -> (t -> bytes -> unit) -> unit
(** Install the remote peer's frame handler (default: sink). *)

val transmit : t -> on_done:(int -> unit) -> stamp:int -> bytes -> unit
(** NIC puts a frame on the wire; the peer handler runs after the
    serialization delay. [on_done stamp] runs first, when the frame has
    left the adapter (serialization complete): the moment a real NIC
    writes back the descriptor and raises its transmit interrupt. The
    NIC models pass a callback built once per device and the frame's
    birth as [stamp], so nothing is allocated per frame. A link flap
    (the ["hw.link"] fault site) still completes the frame but never
    hands it to the peer. *)

val inject : t -> bytes -> unit
(** Peer sends a frame toward the NIC, also rate-limited. *)

val tx_frames : t -> int
val tx_bytes : t -> int
val rx_bytes : t -> int

val rate_bps : t -> int
