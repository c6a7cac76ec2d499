(** Register-level model of a RealTek RTL8139 fast-Ethernet NIC.

    The device decodes a 256-byte port-I/O window (BAR 0). Frame payloads
    move through explicit DMA queues ({!stage_tx_buffer}, {!rx_ring})
    standing in for the descriptor rings in host memory; the control path
    — command register, transmit status slots, interrupt mask/status —
    follows the real part. *)

type t

(* Register offsets within the port window. *)

(** 0x00..0x05: station MAC address *)
val idr0 : int

(** 0x10 + 4*n: transmit status of descriptor n (32-bit) *)
val tsd0 : int

(** 0x30: receive buffer start address *)
val rbstart : int

(** 0x37: command — bit 4 RST, bit 3 RE, bit 2 TE, bit 0 BUFE *)
val cmd : int

(** 0x3c: interrupt mask (16-bit) *)
val imr : int

(** 0x3e: interrupt status (16-bit), write 1 to clear *)
val isr : int

(** 0x40: transmit configuration *)
val tcr : int

(** 0x44: receive configuration *)
val rcr : int


val cmd_rst : int
val cmd_re : int
val cmd_te : int
val cmd_bufe : int
val isr_rok : int
val isr_tok : int
val isr_rx_overflow : int
val tsd_own : int
val tsd_tok : int
val n_tx_desc : int

val create : io_base:int -> irq:int -> mac:string -> link:Link.t -> t
(** Claim the port window and attach to the link. *)

val destroy : t -> unit

val stage_tx_buffer : t -> int -> bytes -> unit
(** DMA: place frame data in the buffer of transmit descriptor [n]
    (modelling the write to the address in TSAD[n]), stamped with its
    birth on the "net.tx" path. The frame goes on the wire when TSD[n]
    is written with the size and OWN cleared, and the stamp completes
    when it has left the wire. *)

val rx_ring : t -> unit Frameq.t
(** DMA: the receive ring, oldest frame first, each stamped with its
    wire-arrival birth ({!Decaf_kernel.Clock.now} as it arrived). The
    driver reads and drops frames in place and completes the stamp with
    {!Decaf_kernel.Clock.complete_since} when the packet reaches
    [netif_rx], closing the "net.rx" end-to-end timeline. *)

val rx_pending : t -> int
val phy : t -> Phy.t
val tx_count : t -> int
val rx_count : t -> int
