open Decaf_xpc
module Plan = Marshal_plan

type kernel_nic = { k_addr : int; fields : Codec.obj }

let mc_filter_words = 2

(* What the user-level 8139too code touches: msg_enable both ways, and
   the kernel-maintained multicast filter, drop counter and stats
   generation as read-only views refreshed by deferred notifications.
   Only msg_enable is writable from user level; the Read views carry
   rules for completeness but writability rejects them first. *)
let codec =
  let row name access kind rule = { Codec.name; access; kind; rule } in
  Codec.make ~type_id:"rtl8139_nic"
    [
      row "msg_enable" Plan.Read_write Codec.Int (Guard.Range (0, 0xffff));
      row "mc_filter" Plan.Read (Codec.Words mc_filter_words)
        (Guard.Max_len mc_filter_words);
      row "rx_dropped" Plan.Read Codec.Int Guard.Non_negative;
      row "stats_gen" Plan.Read Codec.Int Guard.Non_negative;
    ]

let msg_enable = Codec.int codec "msg_enable"
let mc_filter = Codec.words codec "mc_filter"
let rx_dropped = Codec.int codec "rx_dropped"
let stats_gen = Codec.int codec "stats_gen"
let nic_key = Univ.new_key (Codec.type_id codec)

include Shared_struct.Make (struct
  type kernel = kernel_nic

  let codec = codec
  let key = nic_key
  let addr k = k.k_addr
  let fields k = k.fields
  let on_create _ _ = ()
  let embedded _ = []
  let aliases _ = []
end)

let fresh_kernel_nic () =
  { k_addr = Addr.alloc ~size:256; fields = Codec.create codec }

(* Ring fast path, as in E1000_objects: stats rollups and rx-overflow
   drops as slot records. *)

let ring_ev_stats = 1
let ring_ev_rx_dropped = 2

let ring_table =
  Ring.table ~type_id:"rtl8139_ring_slot"
    ~kinds:[ ring_ev_stats; ring_ev_rx_dropped ]
    ~arg0:Guard.Non_negative ~arg1:Guard.Non_negative

let ring_guard = Codec.guard ring_table

let ring_resolve = resolve

(* Quiet writes: the ring delivers the value; only an undeliverable
   record marks its field. *)
let bump_record kind f k =
  let v = Codec.get k.fields f + 1 in
  Codec.set_quiet k.fields f v;
  { Ring.kind; handle = handle k; arg0 = v; arg1 = 0 }

let ring_stats_record = bump_record ring_ev_stats stats_gen
let ring_rx_dropped_record = bump_record ring_ev_rx_dropped rx_dropped

(* Each kind carries one counter's new value; the guard admits no
   other kind. *)
let counter (r : Ring.record) =
  if r.Ring.kind = ring_ev_stats then stats_gen else rx_dropped

let ring_undeliverable k r = Codec.mark k.fields (counter r)

let apply_ring_record (r : Ring.record) =
  match find_view r.Ring.handle with
  | None -> ()
  | Some { Shared_struct.fields; _ } ->
      Codec.set_quiet fields (counter r) r.Ring.arg0
