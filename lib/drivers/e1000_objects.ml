open Decaf_xpc
module Plan = Marshal_plan

type ring = { mutable head : int; mutable tail : int; mutable count : int }

type kernel_adapter = {
  k_addr : int;
  k_tx_addr : int;
  k_rx_addr : int;
  k_tx : ring;
  k_rx : ring;
  fields : Codec.obj;
}

let config_words = 16

(* The fields user-level code touches, with the Guard rule each inbound
   value must clear (the honest driver's envelope: msg_enable is a
   NETIF_MSG_* mask, flags a small bitmask, config_space at most the
   config window). tx/rx ring indices are data-path state and stay out.
   [stats_gen] is the kernel's running count of data-path stats rollups,
   the payload of the periodic stats notification, so delta marshals of
   an otherwise-clean adapter carry one int instead of the whole struct.
   The Read fields carry rules too, but writability rejects them first. *)
let codec =
  let row name access kind rule = { Codec.name; access; kind; rule } in
  Codec.make ~type_id:"e1000_adapter"
    [
      row "msg_enable" Plan.Read_write Codec.Int (Guard.Range (0, 0xffff));
      row "flags" Plan.Read_write Codec.Int Guard.Non_negative;
      row "link_up" Plan.Read_write Codec.Bool Guard.Any;
      row "mtu" Plan.Read Codec.Int (Guard.Range (68, 9000));
      row "config_space" Plan.Read_write (Codec.Words config_words)
        (Guard.Max_len config_words);
      row "watchdog_events" Plan.Read_write Codec.Int Guard.Non_negative;
      row "stats_gen" Plan.Read Codec.Int Guard.Non_negative;
    ]

let plan = Codec.plan codec
let guard = Codec.guard codec
let msg_enable = Codec.int codec "msg_enable"
let flags = Codec.int codec "flags"
let link_up = Codec.bool codec "link_up"
let mtu = Codec.int codec "mtu"
let config_space = Codec.words codec "config_space"
let watchdog_events = Codec.int codec "watchdog_events"
let stats_gen = Codec.int codec "stats_gen"
let adapter_key = Univ.new_key (Codec.type_id codec)
let ring_key : ring Univ.key = Univ.new_key "e1000_ring"

let ring_handle addr =
  Objtracker.issue
    (Decaf_runtime.Runtime.kernel_tracker ())
    ~addr ~type_id:(Univ.key_name ring_key)

let tx_ring_handle k = ring_handle k.k_tx_addr
let rx_ring_handle k = ring_handle k.k_rx_addr

include Shared_struct.Make (struct
  type kernel = kernel_adapter

  let codec = codec
  let key = adapter_key
  let addr k = k.k_addr
  let fields k = k.fields

  let on_create k _ =
    let jt = Decaf_runtime.Runtime.java_tracker () in
    let fresh () = Univ.pack ring_key { head = 0; tail = 0; count = 0 } in
    Objtracker.associate jt ~addr:(tx_ring_handle k) (fresh ());
    Objtracker.associate jt ~addr:(rx_ring_handle k) (fresh ())

  (* a list literal evaluates right to left: rx, then tx *)
  let embedded k = [ tx_ring_handle k; rx_ring_handle k ]

  (* the tx ring shares the adapter's address; the rx ring has its own *)
  let aliases k = [ k.k_rx_addr ]
end)

let adapter_handle = handle

let fresh_kernel_adapter () =
  let k_addr = Addr.alloc ~size:512 in
  let fields = Codec.create codec in
  Codec.set_quiet fields mtu 1500;
  {
    k_addr;
    (* the tx ring is the first member: same address as the adapter *)
    k_tx_addr = Addr.embedded ~parent:k_addr ~offset:0;
    k_rx_addr = Addr.embedded ~parent:k_addr ~offset:16;
    k_tx = { head = 0; tail = 0; count = 256 };
    k_rx = { head = 0; tail = 0; count = 256 };
    fields;
  }

(* Ring fast path: a stats record carries the generation in arg0, a
   link record the new state in arg1. *)

let ring_ev_stats = 1
let ring_ev_link = 2

let ring_table =
  Ring.table ~type_id:"e1000_ring_slot"
    ~kinds:[ ring_ev_stats; ring_ev_link ]
    ~arg0:Guard.Non_negative ~arg1:(Guard.Range (0, 1))

let ring_guard = Codec.guard ring_table

let ring_resolve = resolve

(* Record constructors write kernel state WITHOUT a dirty mark: the ring
   carries the new value, so letting the delta path re-send it would pay
   the marshal twice. Only an undeliverable record marks its field. *)

let ring_stats_record k =
  let gen = Codec.get k.fields stats_gen + 1 in
  Codec.set_quiet k.fields stats_gen gen;
  { Ring.kind = ring_ev_stats; handle = handle k; arg0 = gen; arg1 = 0 }

let ring_link_record k up =
  Codec.set_quiet k.fields link_up up;
  let arg1 = if up then 1 else 0 in
  { Ring.kind = ring_ev_link; handle = handle k; arg0 = 0; arg1 }

let ring_undeliverable k (r : Ring.record) =
  if r.Ring.kind = ring_ev_stats then Codec.mark k.fields stats_gen
  else if r.Ring.kind = ring_ev_link then Codec.mark k.fields link_up

(* Runs in the user domain inside the doorbell crossing, after the
   handle resolved and the guard passed: the view updates in place with
   no marks. No view yet (runtime restarted since produce) is benign:
   the next full-image crossing carries everything anyway. *)
let apply_ring_record (r : Ring.record) =
  match find_view r.Ring.handle with
  | None -> ()
  | Some { Shared_struct.fields; _ } ->
      if r.Ring.kind = ring_ev_stats then
        Codec.set_quiet fields stats_gen r.Ring.arg0
      else if r.Ring.kind = ring_ev_link then
        Codec.set_quiet fields link_up (r.Ring.arg1 = 1)
