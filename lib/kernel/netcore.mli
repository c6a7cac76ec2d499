(** The network-device layer: sk_buffs, net_devices, and the hooks the
    protocol stack (here: the netperf workload) attaches to. *)

module Skb : sig
  type t = private { data : Bytes.t; len : int }
  (** A packet buffer. [len] is always [Bytes.length data]: the only
      constructors are {!alloc} and {!of_bytes}, so a driver can hand
      [data] to its device model as the frame itself, as DMA would,
      without copying a prefix out of it. *)

  val alloc : int -> t
  (** Allocate a buffer of the given length, zero-filled. *)

  val of_bytes : Bytes.t -> t
  (** Wrap a buffer, shared rather than copied: a received frame, or a
      traffic generator's payload reused for every message. Sharing is
      safe because no driver or device model writes a frame after it is
      handed over. *)
end

type stats = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_errors : int;
  mutable rx_dropped : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable tx_errors : int;
  mutable tx_dropped : int;
}

type xmit_result = Xmit_ok | Xmit_busy

type ops = {
  ndo_open : unit -> (unit, int) result;
  ndo_stop : unit -> (unit, int) result;
  ndo_start_xmit : Skb.t -> xmit_result;
  ndo_tx_timeout : unit -> unit;
}

type t

val create : name:string -> mtu:int -> ops -> t

val alloc_name : string -> string
(** [alloc_name "eth"] returns the first unused ["eth<n>"] (the kernel's
    [eth%d] allocation). *)

val name : t -> string
val mtu : t -> int
val stats : t -> stats

val register_netdev : t -> unit
(** Make the device visible to the stack; raises on duplicate name. *)

val unregister_netdev : t -> unit
val lookup : string -> t option

val open_dev : t -> (unit, int) result
(** Bring the interface up ([ifconfig up]): calls [ndo_open]. *)

val stop_dev : t -> (unit, int) result
val is_up : t -> bool

val dev_queue_xmit : t -> Skb.t -> xmit_result
(** Transmit from the stack; fails with [Xmit_busy] when the driver has
    stopped the queue. *)

val netif_rx : t -> Skb.t -> unit
(** Driver hands a received packet to the stack. *)

val set_rx_handler : t -> (Skb.t -> unit) -> unit
(** Protocol-stack hook invoked on every received packet. *)

val netif_stop_queue : t -> unit
val netif_wake_queue : t -> unit
val netif_queue_stopped : t -> bool
val netif_carrier_on : t -> unit
val netif_carrier_off : t -> unit
val reset : unit -> unit
