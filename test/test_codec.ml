(* Tests for the descriptor-driven codec (Xpc.Codec) and the shared
   crossing it drives (Shared_struct): pinned wire images, malformed
   inbound images, and a Guard violation generated from every row of
   both descriptor tables. *)

open Decaf_xpc
module K = Decaf_kernel
module Plan = Marshal_plan
module EO = Decaf_drivers.E1000_objects
module RO = Decaf_drivers.Rtl8139_objects
module Shared_struct = Decaf_drivers.Shared_struct

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let hex b =
  String.concat ""
    (List.init (Bytes.length b) (fun i ->
         Printf.sprintf "%02x" (Bytes.get_uint8 b i)))

let checks () = Boundary.totals.Boundary.checks
let user_fields j = j.Shared_struct.fields

(* --- golden wire images ---

   The exact bytes of each image kind: field order, presence flags and
   XDR types are the wire format, so they must not move. The handle is
   the first one the kernel tracker issues after boot. *)

let e1000_golden =
  [
    ( "fresh full image",
      "00100c0000000001000000000000000100000000000000010000000000000001\
       000005dc00000001000000100000000000000000000000000000000000000000\
       0000000000000000000000000000000000000000000000000000000000000000\
       00000000000000000000000000000001000000000000000100000000" );
    ( "full image after kernel writes",
      "00100c0000000001000000410000000100000003000000010000000100000001\
       0000232800000001000000100000000000000000000000000000000000000000\
       0000000000000000000000000000000000000000000000000000000000000000\
       00000000000000000000000000000001000000000000000100000001" );
    ( "reply image",
      "00100c0000000001000000420000000100000005000000010000000100000000\
       0000000100000010000000000000000000000000deadbeef0000000000000000\
       0000000000000000000000000000000000000000000000000000000000000000\
       0000000000000000000000010000000100000000" );
    ( "delta image",
      "00100c0000000000000000000000000100000000000000000000000000000000\
       0000000100000002" );
    ( "delta reply",
      "00100c0000000000000000000000000100000000000000000000000000000000\
       00000000" );
  ]

let test_e1000_golden () =
  K.Boot.boot ();
  let images = ref [] in
  let keep name b = images := (name, hex b) :: !images in
  let k = EO.fresh_kernel_adapter () in
  let kf = k.EO.fields in
  keep "fresh full image" (EO.marshal_to_user k);
  Codec.set kf EO.msg_enable 0x41;
  Codec.set kf EO.flags 3;
  Codec.set kf EO.link_up true;
  Codec.set kf EO.mtu 9000;
  Codec.set kf EO.stats_gen (Codec.get kf EO.stats_gen + 1);
  let written = EO.marshal_to_user k in
  keep "full image after kernel writes" written;
  let j = EO.unmarshal_at_user written k in
  let jf = user_fields j in
  Codec.set jf EO.msg_enable 0x42;
  Codec.set jf EO.flags 5;
  Codec.set jf EO.watchdog_events (Codec.get jf EO.watchdog_events + 1);
  Codec.set_word jf EO.config_space 3 0xdead_beef;
  let reply = EO.marshal_to_kernel j in
  keep "reply image" reply;
  EO.unmarshal_at_kernel reply k;
  Plan.set_delta_enabled true;
  EO.ack_user_view k ~upto:(EO.user_view_mark k);
  Codec.set kf EO.stats_gen (Codec.get kf EO.stats_gen + 1);
  Codec.set kf EO.link_up false;
  keep "delta image" (EO.marshal_to_user k);
  ignore (EO.marshal_to_kernel j);
  Codec.set jf EO.link_up false;
  let delta_reply = EO.marshal_to_kernel j in
  keep "delta reply" delta_reply;
  EO.unmarshal_at_kernel delta_reply k;
  List.iter
    (fun (name, want) ->
      check_string name want (List.assoc name !images))
    e1000_golden;
  check "full image size" 124 EO.wire_size;
  (* the size bound once per inbound image, then writability and the
     rule of each present field *)
  check "guard checks" 12 (checks ())

let rtl_golden =
  [
    ( "fresh full image",
      "00100c0000000001000000000000000100000002000000000000000000000001\
       000000000000000100000000" );
    ( "full image after kernel writes",
      "00100c0000000001000000110000000100000002000000aa000000bb00000001\
       000000010000000100000001" );
    ("reply image", "00100c000000000100000022000000000000000000000000");
    ("delta image", "00100c000000000000000000000000010000000200000000");
    ("delta reply", "00100c000000000100000033000000000000000000000000");
  ]

let test_rtl_golden () =
  K.Boot.boot ();
  let images = ref [] in
  let keep name b = images := (name, hex b) :: !images in
  let k = RO.fresh_kernel_nic () in
  let kf = k.RO.fields in
  let bump f = Codec.set kf f (Codec.get kf f + 1) in
  keep "fresh full image" (RO.marshal_to_user k);
  Codec.set kf RO.msg_enable 0x11;
  Codec.set kf RO.mc_filter [| 0xaa; 0xbb |];
  bump RO.rx_dropped;
  bump RO.stats_gen;
  let written = RO.marshal_to_user k in
  keep "full image after kernel writes" written;
  let j = RO.unmarshal_at_user written k in
  Codec.set (user_fields j) RO.msg_enable 0x22;
  let reply = RO.marshal_to_kernel j in
  keep "reply image" reply;
  RO.unmarshal_at_kernel reply k;
  Plan.set_delta_enabled true;
  RO.ack_user_view k ~upto:(RO.user_view_mark k);
  bump RO.rx_dropped;
  keep "delta image" (RO.marshal_to_user k);
  ignore (RO.marshal_to_kernel j);
  Codec.set (user_fields j) RO.msg_enable 0x33;
  let delta_reply = RO.marshal_to_kernel j in
  keep "delta reply" delta_reply;
  RO.unmarshal_at_kernel delta_reply k;
  List.iter
    (fun (name, want) ->
      check_string name want (List.assoc name !images))
    rtl_golden;
  check "full image size" 44 RO.wire_size;
  check "guard checks" 6 (checks ())

(* --- one kernel object per struct --- *)

type instance = {
  fields : Codec.obj;
  handle : Objtracker.handle;
  full_image : unit -> bytes;
      (** every field of either struct copies in, so a full image with
          delta marshaling off is a snapshot of the whole object *)
  unmarshal : bytes -> unit;  (** the inbound, kernel-side unmarshal *)
}

type subject = {
  s_name : string;
  scope : string;  (** the binding scope rejections are attributed to *)
  codec : Codec.t;
  fresh : unit -> instance;
}

let e1000 =
  {
    s_name = "e1000_adapter";
    scope = "e1000";
    codec = EO.codec;
    fresh =
      (fun () ->
        let k = EO.fresh_kernel_adapter () in
        {
          fields = k.EO.fields;
          handle = EO.handle k;
          full_image = (fun () -> EO.marshal_to_user k);
          unmarshal = (fun b -> EO.unmarshal_at_kernel b k);
        });
  }

let rtl =
  {
    s_name = "rtl8139_nic";
    scope = "8139too";
    codec = RO.codec;
    fresh =
      (fun () ->
        let k = RO.fresh_kernel_nic () in
        {
          fields = k.RO.fields;
          handle = RO.handle k;
          full_image = (fun () -> RO.marshal_to_user k);
          unmarshal = (fun b -> RO.unmarshal_at_kernel b k);
        });
  }

type counts = { total : int; scoped : int; guard : int }

let counts s =
  {
    total = Boundary.totals.Boundary.rejected;
    scoped = Boundary.rejected_for s.scope;
    guard = Guard.rejections (Codec.guard s.codec);
  }

(* Feed one inbound image to a fresh kernel object; return the field it
   was rejected on (if any), the counter deltas, whether the object kept
   every field, and the object. *)
let feed s image_of =
  K.Boot.boot ();
  let k = s.fresh () in
  let image = image_of k in
  let before = k.full_image () and c0 = counts s in
  let rejected =
    match Boundary.scoped s.scope (fun () -> k.unmarshal image) with
    | () -> None
    | exception Boundary.Boundary_violation { field; _ } -> Some field
  in
  let c1 = counts s in
  ( rejected,
    {
      total = c1.total - c0.total;
      scoped = c1.scoped - c0.scoped;
      guard = c1.guard - c0.guard;
    },
    Bytes.equal (k.full_image ()) before,
    k.fields )

(* --- malformed inbound images ---

   A truncated image, a presence flag other than 0/1, bytes left over
   and an empty payload do not decode: each is one counted boundary
   fault on the "payload" field, raised before anything applies. The
   base is the object's own full image with msg_enable (the first
   field) changed, so a partial apply would show. *)

let malformed_shapes =
  let with_word off v good =
    let b = Bytes.copy good in
    Bytes.set_int32_be b off v;
    b
  in
  [
    ("truncated", fun good -> Bytes.sub good 0 (Bytes.length good - 4));
    ("presence flag 2", with_word 4 2l);
    ("trailing bytes", fun good -> Bytes.cat good (Bytes.make 4 '\000'));
    ("empty", fun _ -> Bytes.empty);
  ]

let test_malformed s () =
  List.iter
    (fun (shape, cut) ->
      let what = s.s_name ^ " " ^ shape in
      let rejected, d, unchanged, _ =
        feed s (fun k ->
            let good = k.full_image () in
            Bytes.set_int32_be good 8 0x1234l;
            cut good)
      in
      Alcotest.(check (option string))
        (what ^ ": rejected on the payload")
        (Some "payload") rejected;
      check (what ^ ": one rejection machine-wide") 1 d.total;
      check (what ^ ": one rejection under the binding") 1 d.scoped;
      check (what ^ ": one rejection by the guard") 1 d.guard;
      check_bool (what ^ ": object unchanged") true unchanged)
    malformed_shapes

(* --- violations generated from the tables ---

   For every descriptor: each of its Codec.violations (a Read field
   present, a value just outside its Range or Non_negative rule, Max_len
   + 1 words) is rejected on that field, once, under the binding's
   scope, with every field of the kernel object unchanged. Every
   writable field also takes an in-envelope value. *)

let test_table_violations s () =
  let descs = Codec.descs s.codec in
  let exercised = ref 0 in
  List.iter
    (fun (d : Codec.desc) ->
      let writable = Plan.copies_out (Codec.plan s.codec) d.Codec.name in
      if writable || Codec.violations d <> [] then incr exercised;
      List.iter
        (fun (case, v) ->
          let what = Printf.sprintf "%s.%s %s" s.s_name d.Codec.name case in
          let rejected, c, unchanged, _ =
            feed s (fun k ->
                Codec.payload s.codec ~handle:k.handle [ (d.Codec.name, v) ])
          in
          Alcotest.(check (option string))
            (what ^ ": rejected on the field")
            (Some d.Codec.name) rejected;
          check (what ^ ": one rejection under the binding") 1 c.scoped;
          check_bool (what ^ ": object unchanged") true unchanged)
        (Codec.violations d);
      if writable then begin
        let v = Codec.in_envelope d in
        let rejected, c, _, fields =
          feed s (fun k ->
              Codec.payload s.codec ~handle:k.handle [ (d.Codec.name, v) ])
        in
        let what = Printf.sprintf "%s.%s in envelope" s.s_name d.Codec.name in
        Alcotest.(check (option string)) (what ^ ": accepted") None rejected;
        check (what ^ ": no rejection") 0 c.total;
        check_bool (what ^ ": applied") true
          (List.assoc d.Codec.name (Codec.values fields) = v)
      end)
    descs;
  check "every descriptor exercised" (List.length descs) !exercised

(* --- an Enum rule: a ring table's kind ---

   The kind one above the slot table's largest is refused at drain, on
   that field, under the ring's scope; the same record with the
   in-envelope kind is handled. *)

let test_ring_kind_enum () =
  K.Boot.boot ();
  let table = EO.ring_table in
  let kind =
    List.find
      (fun d -> match d.Codec.rule with Guard.Enum _ -> true | _ -> false)
      (Codec.descs table)
  in
  let label, v =
    match Codec.violations kind with
    | [ one ] -> one
    | l -> Alcotest.failf "%d violations of one enum" (List.length l)
  in
  check_string "label" "outside enum" label;
  check_bool "one above the largest kind" true
    (v = Codec.I (EO.ring_ev_link + 1));
  let handled = ref [] in
  ignore
    (K.Sched.spawn ~name:"test" (fun () ->
         let ring =
           Ring.create ~name:"e1000" ~target:Domain.Decaf_driver
             ~guard:(Codec.guard table) ~resolve:Result.ok
             ~handler:(fun r -> handled := r.Ring.kind :: !handled)
             ()
         in
         List.iter
           (fun values ->
             ignore (Ring.produce ring (Ring.forge table ~handle:1 values)))
           [ [ (kind.Codec.name, v) ]; [] ];
         Ring.drain ring));
  K.Sched.run ();
  check "forged kind rejected at drain" 1 (Ring.snapshot ()).Ring.rejected;
  check "one rejection under the ring's scope" 1
    (Boundary.rejected_for "e1000");
  Alcotest.(check (list int))
    "in-envelope record handled" [ EO.ring_ev_stats ] !handled

(* --- the codec on its own --- *)

let test_set_marks_only_on_change () =
  let o = Codec.create RO.codec in
  let dirty = Codec.dirty o in
  Codec.set o RO.msg_enable 0;
  check "unchanged value leaves no mark" 0 (Plan.Dirty.pending dirty);
  Codec.set o RO.mc_filter [| 0; 0 |];
  check "unchanged words leave no mark" 0 (Plan.Dirty.pending dirty);
  Codec.set_quiet o RO.rx_dropped 4;
  check "quiet write leaves no mark" 0 (Plan.Dirty.pending dirty);
  Codec.set o RO.mc_filter [| 0; 9 |];
  (* mc_filter is the table's second row *)
  check_bool "one changed word marks the array" true
    (Plan.Dirty.test dirty 1);
  Codec.set_word o RO.mc_filter 1 9;
  check "same word again: still one mark" 1 (Plan.Dirty.pending dirty);
  check "values read back" 9 (Codec.get o RO.mc_filter).(1)

let test_table_derives_plan_and_guard () =
  let plan = Codec.plan EO.codec in
  Alcotest.(check (list string))
    "plan order is table order"
    (List.map (fun d -> d.Codec.name) (Codec.descs EO.codec))
    (List.map fst (Plan.fields plan));
  check_string "guard type" "e1000_adapter"
    (Guard.type_id (Codec.guard EO.codec));
  check_bool "unknown payload field refused" true
    (match Codec.payload EO.codec ~handle:1 [ ("no_such", Codec.I 0) ] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "a field of another kind refused" true
    (match Codec.int EO.codec "link_up" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Allocation regression: with delta on and a user view in place, an
   e1000 delta image picks its fields by table position and is encoded
   into one reused buffer, so the returned bytes are nearly all it
   allocates. *)
let test_e1000_marshal_alloc () =
  K.Boot.boot ();
  Plan.set_delta_enabled true;
  let k = EO.fresh_kernel_adapter () in
  ignore (EO.unmarshal_at_user (EO.marshal_to_user k) k);
  Codec.set k.EO.fields EO.stats_gen 1;
  Codec.set k.EO.fields EO.link_up true;
  check "a delta image" 40 (Bytes.length (EO.marshal_to_user k));
  for _ = 1 to 100 do
    ignore (EO.marshal_to_user k)
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (EO.marshal_to_user k)
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool (Printf.sprintf "%.1f words per image <= 44" words) true
    (words <= 44.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_codec"
    [
      ( "golden",
        [
          tc "e1000 wire images" test_e1000_golden;
          tc "8139too wire images" test_rtl_golden;
        ] );
      ( "malformed",
        [
          tc "e1000 malformed images" (test_malformed e1000);
          tc "8139too malformed images" (test_malformed rtl);
        ] );
      ( "violations",
        [
          tc "every e1000 descriptor" (test_table_violations e1000);
          tc "every 8139too descriptor" (test_table_violations rtl);
          tc "e1000 ring kind outside the enum" test_ring_kind_enum;
        ] );
      ( "codec",
        [
          tc "set marks only on change" test_set_marks_only_on_change;
          tc "table derives plan and guard" test_table_derives_plan_and_guard;
          tc "e1000 marshal allocation" test_e1000_marshal_alloc;
        ] );
    ]
