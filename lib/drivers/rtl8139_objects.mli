(** Shared-object layer of the 8139too decaf driver: the rtl8139
    counterpart of {!E1000_objects} over the same {!Shared_struct}.

    The kernel keeps the authoritative [msg_enable], multicast filter,
    drop counter and stats generation; user-level code reads them
    through a marshaled view refreshed on control crossings and by
    deferred notifications ({!Decaf_xpc.Batch}). Only [msg_enable] is
    written back. *)

type kernel_nic = { k_addr : int; fields : Decaf_xpc.Codec.obj }

val msg_enable : int Decaf_xpc.Codec.field
val mc_filter : int array Decaf_xpc.Codec.field
val rx_dropped : int Decaf_xpc.Codec.field
val stats_gen : int Decaf_xpc.Codec.field

include Shared_struct.S with type kernel = kernel_nic

val fresh_kernel_nic : unit -> kernel_nic

(** {2 Ring fast path}

    Stats rollups and rx-overflow drops as fixed-layout
    {!Decaf_xpc.Ring} slot records, as in {!E1000_objects}. The
    multicast filter travels only in full and delta images. *)

val ring_ev_stats : int

val ring_table : Decaf_xpc.Codec.t
(** The slot table: one of the two kinds, both args non-negative. *)

val ring_guard : Decaf_xpc.Guard.t
val ring_resolve : int -> (int, string) result
val ring_stats_record : kernel_nic -> Decaf_xpc.Ring.record
val ring_rx_dropped_record : kernel_nic -> Decaf_xpc.Ring.record
val ring_undeliverable : kernel_nic -> Decaf_xpc.Ring.record -> unit
val apply_ring_record : Decaf_xpc.Ring.record -> unit
