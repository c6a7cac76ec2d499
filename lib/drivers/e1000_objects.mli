(** Shared-object layer of the E1000 decaf driver: the descriptor table
    of [struct e1000_adapter] and its ring records, what the DriverSlicer
    XDR compilers would emit (§3.2.3). The crossing itself — handles,
    marshaling, the user-level view, validate-then-apply — is
    {!Shared_struct}'s.

    The kernel adapter has a simulated C address; its embedded rings
    share it, offset by their position (the inner/outer aliasing of
    §3.1.2), but get their own capability handles, so the aliasing
    cannot be abused for type confusion. The first crossing registers
    both rings beside the user-level view; {!release} revokes all three. *)

type ring = { mutable head : int; mutable tail : int; mutable count : int }

type kernel_adapter = {
  k_addr : int;  (** simulated C address *)
  k_tx_addr : int;  (** address of the embedded tx ring (= k_addr) *)
  k_rx_addr : int;
  k_tx : ring;
  k_rx : ring;
  fields : Decaf_xpc.Codec.obj;
      (** read and written with {!Decaf_xpc.Codec.get}/[set] *)
}

val config_words : int
(** Length of the saved PCI config-space array (dwords). *)

val plan : Decaf_xpc.Marshal_plan.t
val guard : Decaf_xpc.Guard.t
val msg_enable : int Decaf_xpc.Codec.field
val flags : int Decaf_xpc.Codec.field
val link_up : bool Decaf_xpc.Codec.field
val mtu : int Decaf_xpc.Codec.field
val config_space : int array Decaf_xpc.Codec.field
val watchdog_events : int Decaf_xpc.Codec.field
val stats_gen : int Decaf_xpc.Codec.field
val adapter_key : Shared_struct.user Decaf_xpc.Univ.key
val ring_key : ring Decaf_xpc.Univ.key

include Shared_struct.S with type kernel = kernel_adapter

val adapter_handle : kernel_adapter -> Decaf_xpc.Objtracker.handle
val tx_ring_handle : kernel_adapter -> Decaf_xpc.Objtracker.handle

val fresh_kernel_adapter : unit -> kernel_adapter
(** Allocate with fresh simulated addresses. *)

(** {2 Ring fast path}

    The two hot notifications (periodic stats rollups, link
    transitions) as fixed-layout {!Decaf_xpc.Ring} slot records. *)

val ring_ev_stats : int
val ring_ev_link : int

val ring_table : Decaf_xpc.Codec.t
(** The slot table ({!Decaf_xpc.Ring.table}): a stats or link kind,
    [arg0] non-negative, [arg1] 0 or 1. *)

val ring_guard : Decaf_xpc.Guard.t
(** [Codec.guard ring_table], the [guard] of the driver's ring. *)

val ring_resolve : int -> (int, string) result
(** The [resolve] argument for {!Decaf_xpc.Ring.create}. *)

val ring_stats_record : kernel_adapter -> Decaf_xpc.Ring.record
(** Advance [stats_gen] WITHOUT a dirty mark (the ring carries the
    value) and build the slot record for it. *)

val ring_link_record : kernel_adapter -> bool -> Decaf_xpc.Ring.record
(** Set [link_up] without a mark and build the slot record. *)

val ring_undeliverable : kernel_adapter -> Decaf_xpc.Ring.record -> unit
(** The record was dropped (ring overflow, teardown): mark the field it
    carried dirty so the delta-sync slow path repairs the staleness. *)

val apply_ring_record : Decaf_xpc.Ring.record -> unit
(** Consumer side, after validation: update the user-level view in
    place; no view yet is benign. *)
