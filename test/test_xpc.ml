(* Tests for the XPC runtime: XDR wire format, object tracker, marshal
   plans, and costed control transfer. *)

open Decaf_xpc
module K = Decaf_kernel

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- XDR --- *)

let test_xdr_scalars () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.int e (-42);
  Xdr.Enc.uint e 0xdead_beef;
  Xdr.Enc.hyper e (-1234567890123L);
  Xdr.Enc.bool e true;
  Xdr.Enc.double e 3.25;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  check "int" (-42) (Xdr.Dec.int d);
  check "uint" 0xdead_beef (Xdr.Dec.uint d);
  Alcotest.(check int64) "hyper" (-1234567890123L) (Xdr.Dec.hyper d);
  check_bool "bool" true (Xdr.Dec.bool d);
  Alcotest.(check (float 0.0)) "double" 3.25 (Xdr.Dec.double d);
  Xdr.Dec.check_drained d

let test_xdr_padding () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.string e "abcde";
  (* 4 length + 5 payload + 3 pad *)
  check "padded size" 12 (Xdr.Enc.size e);
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  Alcotest.(check string) "roundtrip" "abcde" (Xdr.Dec.string d);
  Xdr.Dec.check_drained d

let test_xdr_arrays_options () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.array_var e Xdr.Enc.int [| 1; 2; 3 |];
  Xdr.Enc.array_fixed e Xdr.Enc.int [| 7; 8 |];
  Xdr.Enc.option e Xdr.Enc.int (Some 9);
  Xdr.Enc.option e Xdr.Enc.int None;
  let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
  Alcotest.(check (array int)) "var array" [| 1; 2; 3 |]
    (Xdr.Dec.array_var d Xdr.Dec.int);
  Alcotest.(check (array int)) "fixed array" [| 7; 8 |]
    (Xdr.Dec.array_fixed d Xdr.Dec.int 2);
  Alcotest.(check (option int)) "some" (Some 9) (Xdr.Dec.option d Xdr.Dec.int);
  Alcotest.(check (option int)) "none" None (Xdr.Dec.option d Xdr.Dec.int)

let test_xdr_truncation_detected () =
  let e = Xdr.Enc.create () in
  Xdr.Enc.int e 1;
  let b = Xdr.Enc.to_bytes e in
  let d = Xdr.Dec.of_bytes (Bytes.sub b 0 2) in
  check_bool "decode error" true
    (try
       ignore (Xdr.Dec.int d);
       false
     with Xdr.Decode_error _ -> true)

let test_xdr_range_checks () =
  let e = Xdr.Enc.create () in
  check_bool "uint rejects negative" true
    (try
       Xdr.Enc.uint e (-1);
       false
     with Invalid_argument _ -> true);
  check_bool "int rejects > 2^31-1" true
    (try
       Xdr.Enc.int e 0x8000_0000;
       false
     with Invalid_argument _ -> true)

let prop_xdr_int_roundtrip =
  QCheck.Test.make ~name:"xdr int roundtrip" ~count:500
    QCheck.(int_range (-0x4000_0000) 0x3fff_ffff)
    (fun v ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.int e v;
      Xdr.Dec.int (Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e)) = v)

let prop_xdr_hyper_roundtrip =
  QCheck.Test.make ~name:"xdr hyper roundtrip" ~count:500 QCheck.int64
    (fun v ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.hyper e v;
      Xdr.Dec.hyper (Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e)) = v)

let prop_xdr_string_roundtrip_and_alignment =
  QCheck.Test.make ~name:"xdr string roundtrip, 4-byte aligned" ~count:200
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun s ->
      let e = Xdr.Enc.create () in
      Xdr.Enc.string e s;
      Xdr.Enc.size e mod 4 = 0
      && Xdr.Dec.string (Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e)) = s)

let prop_xdr_mixed_sequence =
  QCheck.Test.make ~name:"xdr heterogeneous sequence roundtrip" ~count:200
    QCheck.(small_list (pair (int_range 0 1000) (string_of_size Gen.(int_range 0 16))))
    (fun items ->
      let e = Xdr.Enc.create () in
      List.iter
        (fun (n, s) ->
          Xdr.Enc.int e n;
          Xdr.Enc.string e s)
        items;
      let d = Xdr.Dec.of_bytes (Xdr.Enc.to_bytes e) in
      let decode_item _ =
        let n = Xdr.Dec.int d in
        let s = Xdr.Dec.string d in
        (n, s)
      in
      let back = List.map decode_item items in
      Xdr.Dec.check_drained d;
      back = items)

(* --- Object tracker --- *)

type fake_ring = { mutable count : int }
type fake_adapter = { mutable flags : int }

let ring_key : fake_ring Univ.key = Univ.new_key "e1000_tx_ring"
let adapter_key : fake_adapter Univ.key = Univ.new_key "e1000_adapter"

let test_tracker_roundtrip () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let obj = { count = 3 } in
  let addr = Addr.alloc ~size:64 in
  Objtracker.associate tr ~addr (Univ.pack ring_key obj);
  (match Objtracker.find tr ~addr ring_key with
  | Some o ->
      check_bool "same object" true (o == obj);
      o.count <- 7
  | None -> Alcotest.fail "lookup failed");
  check "mutation visible" 7 obj.count;
  check "count" 1 (Objtracker.count tr)

let test_tracker_type_disambiguation () =
  (* An adapter whose first member is a ring: same address, two types. *)
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let adapter = { flags = 1 } in
  let ring = { count = 0 } in
  let base = Addr.alloc ~size:256 in
  let inner = Addr.embedded ~parent:base ~offset:0 in
  Objtracker.associate tr ~addr:base (Univ.pack adapter_key adapter);
  Objtracker.associate tr ~addr:inner (Univ.pack ring_key ring);
  check "same numeric address" base inner;
  check_bool "adapter found" true (Objtracker.find tr ~addr:base adapter_key <> None);
  check_bool "ring found at same addr" true (Objtracker.find tr ~addr:base ring_key <> None);
  Alcotest.(check (list string))
    "types at address" [ "e1000_adapter"; "e1000_tx_ring" ]
    (Objtracker.types_at tr ~addr:base)

let test_tracker_remove () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:16 in
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 0 });
  Objtracker.associate tr ~addr (Univ.pack adapter_key { flags = 0 });
  Objtracker.remove tr ~addr ~type_id:"e1000_tx_ring";
  check "one left" 1 (Objtracker.count tr);
  Objtracker.remove_all tr ~addr;
  check "empty" 0 (Objtracker.count tr)

let test_tracker_stats () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:16 in
  ignore (Objtracker.find tr ~addr ring_key);
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 0 });
  ignore (Objtracker.find tr ~addr ring_key);
  let st = Objtracker.stats tr in
  check "lookups" 2 st.Objtracker.lookups;
  check "hits" 1 st.Objtracker.hits;
  check "registrations" 1 st.Objtracker.registrations

(* --- Marshal plans --- *)

let test_plan_directions () =
  let plan =
    Marshal_plan.make ~type_id:"s"
      [ ("a", Marshal_plan.Read); ("b", Marshal_plan.Write); ("c", Marshal_plan.Read_write) ]
  in
  check_bool "R copies in" true (Marshal_plan.copies_in plan "a");
  check_bool "R not out" false (Marshal_plan.copies_out plan "a");
  check_bool "W not in" false (Marshal_plan.copies_in plan "b");
  check_bool "W copies out" true (Marshal_plan.copies_out plan "b");
  check_bool "RW both" true
    (Marshal_plan.copies_in plan "c" && Marshal_plan.copies_out plan "c");
  check_bool "unknown field never copied" false
    (Marshal_plan.copies_in plan "zzz" || Marshal_plan.copies_out plan "zzz")

let test_plan_union () =
  let p1 = Marshal_plan.make ~type_id:"s" [ ("a", Marshal_plan.Read) ] in
  let p2 =
    Marshal_plan.make ~type_id:"s"
      [ ("a", Marshal_plan.Write); ("b", Marshal_plan.Read) ]
  in
  let u = Marshal_plan.union p1 p2 in
  check_bool "a promoted to RW" true
    (Marshal_plan.copies_in u "a" && Marshal_plan.copies_out u "a");
  check_bool "b present" true (Marshal_plan.copies_in u "b");
  check_bool "different types rejected" true
    (try
       ignore (Marshal_plan.union p1 (Marshal_plan.make ~type_id:"t" []));
       false
     with Invalid_argument _ -> true)

let test_plan_union_order_and_pp () =
  (* field order is part of the wire format, so union's order is
     documented and must not drift: a's fields in a's order, then fields
     only b lists, in b's order *)
  let a =
    Marshal_plan.make ~type_id:"s"
      [ ("b", Marshal_plan.Read); ("a", Marshal_plan.Write) ]
  in
  let b =
    Marshal_plan.make ~type_id:"s"
      [ ("c", Marshal_plan.Read); ("a", Marshal_plan.Read) ]
  in
  let u = Marshal_plan.union a b in
  check_bool "a-first then only-b order" true
    (Marshal_plan.fields u
    = [
        ("b", Marshal_plan.Read);
        ("a", Marshal_plan.Read_write);
        ("c", Marshal_plan.Read);
      ]);
  Alcotest.(check string)
    "pp renders the documented order"
    "plan s:\n  b: R\n  a: RW\n  c: R\n"
    (Format.asprintf "%a" Marshal_plan.pp u);
  (* order invariance of content: swapping the arguments changes order
     but not the set of (field, access) pairs *)
  check_bool "swapped union same content" true
    (List.sort compare (Marshal_plan.fields (Marshal_plan.union b a))
    = List.sort compare (Marshal_plan.fields u))

let test_plan_duplicate_rejected () =
  check_bool "duplicate rejected" true
    (try
       ignore
         (Marshal_plan.make ~type_id:"s"
            [ ("a", Marshal_plan.Read); ("a", Marshal_plan.Write) ]);
       false
     with Invalid_argument _ -> true)

(* --- Channel --- *)

let test_channel_same_domain_free () =
  K.Boot.boot ();
  let t0 = K.Clock.now () in
  let v =
    Channel.call ~target:Domain.Kernel ~payload_bytes:0 ~reply_bytes:0
      (fun () -> 42)
  in
  check "value" 42 v;
  check "no time" t0 (K.Clock.now ());
  check "no crossings" 0 (Channel.stats ()).Channel.kernel_user_calls

let test_channel_kernel_user_accounting () =
  K.Boot.boot ();
  let result = ref 0 in
  ignore
    (K.Sched.spawn (fun () ->
         result :=
           Channel.call ~target:Domain.Driver_lib ~payload_bytes:100
             ~reply_bytes:50 (fun () ->
               Alcotest.(check string)
                 "runs in target domain" "driver-library"
                 (Domain.to_string (Domain.current ()));
               7)));
  K.Sched.run ();
  check "result" 7 !result;
  let st = Channel.stats () in
  check "one kernel/user round trip" 1 st.Channel.kernel_user_calls;
  check "bytes" 150 st.Channel.bytes_marshaled;
  Alcotest.(check string) "domain restored" "kernel"
    (Domain.to_string (Domain.current ()))

let test_channel_kernel_to_java_pays_both () =
  K.Boot.boot ();
  ignore
    (K.Sched.spawn (fun () ->
         ignore
           (Channel.call ~target:Domain.Decaf_driver ~payload_bytes:0
              ~reply_bytes:0 (fun () -> ()))));
  K.Sched.run ();
  let st = Channel.stats () in
  check "kernel/user leg" 1 st.Channel.kernel_user_calls;
  check "c/java leg" 1 st.Channel.c_java_calls

let test_channel_c_java_cheaper_than_kernel () =
  K.Boot.boot ();
  let cost_of target =
    Channel.reset_stats ();
    let spent = ref 0 in
    ignore
      (K.Sched.spawn (fun () ->
           Domain.with_domain Domain.Driver_lib (fun () ->
               let t0 = K.Clock.now () in
               ignore
                 (Channel.call ~target ~payload_bytes:64 ~reply_bytes:0
                    (fun () -> ()));
               spent := K.Clock.now () - t0)));
    K.Sched.run ();
    !spent
  in
  let to_java = cost_of Domain.Decaf_driver in
  let to_kernel = cost_of Domain.Kernel in
  check_bool "language crossing cheaper than protection crossing" true
    (to_java < to_kernel);
  check_bool "both positive" true (to_java > 0 && to_kernel > 0)

let test_channel_upcall_blocked_under_spinlock () =
  K.Boot.boot ();
  let raised = ref false in
  ignore
    (K.Sched.spawn (fun () ->
         let l = K.Sync.Spinlock.create () in
         K.Sync.Spinlock.lock l;
         (try
            ignore
              (Channel.call ~target:Domain.Decaf_driver ~payload_bytes:0
                 ~reply_bytes:0 (fun () -> ()))
          with K.Sched.Would_block_in_atomic _ -> raised := true);
         K.Sync.Spinlock.unlock l));
  K.Sched.run ();
  check_bool "upcall under spinlock forbidden" true !raised

let test_channel_upcall_blocked_in_irq () =
  K.Boot.boot ();
  let raised = ref false in
  K.Irq.request_irq 4 ~name:"t" (fun () ->
      try
        ignore
          (Channel.call ~target:Domain.Driver_lib ~payload_bytes:0
             ~reply_bytes:0 (fun () -> ()))
      with K.Sched.Would_block_in_atomic _ -> raised := true);
  K.Irq.raise_irq 4;
  check_bool "upcall from interrupt forbidden" true !raised

(* --- objtracker edge cases: shared pointers and reset --- *)

let test_tracker_same_pointer_two_types () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = 0xdead0 in
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 3 });
  Objtracker.associate tr ~addr (Univ.pack adapter_key { flags = 9 });
  (* one C pointer, two type ids: both incarnations resolvable *)
  check "two entries" 2 (Objtracker.count tr);
  check_bool "ring found" true
    (match Objtracker.find tr ~addr ring_key with
    | Some r -> r.count = 3
    | None -> false);
  check_bool "adapter found" true
    (match Objtracker.find tr ~addr adapter_key with
    | Some a -> a.flags = 9
    | None -> false);
  Alcotest.(check (list string))
    "types at addr"
    [ "e1000_adapter"; "e1000_tx_ring" ]
    (List.sort compare (Objtracker.types_at tr ~addr));
  (* re-registering the same (pointer, type) replaces, never duplicates *)
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 4 });
  check "still two entries" 2 (Objtracker.count tr);
  check_bool "replaced, not shadowed" true
    (match Objtracker.find tr ~addr ring_key with
    | Some r -> r.count = 4
    | None -> false)

let test_tracker_lookup_after_clear () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = 0xbeef0 in
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 1 });
  Objtracker.associate tr ~addr (Univ.pack adapter_key { flags = 2 });
  Objtracker.clear tr;
  check "empty after clear" 0 (Objtracker.count tr);
  check_bool "find misses after clear" true
    (Objtracker.find tr ~addr ring_key = None);
  check_bool "mem misses after clear" false
    (Objtracker.mem tr ~addr ~type_id:"e1000_tx_ring");
  Alcotest.(check (list string)) "no types" [] (Objtracker.types_at tr ~addr);
  (* the tracker must stay usable after a runtime restart clears it *)
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 2 });
  check_bool "usable after clear" true
    (match Objtracker.find tr ~addr ring_key with
    | Some r -> r.count = 2
    | None -> false)

(* --- channel hardening: failures, retries, reset semantics --- *)

let test_channel_reset_stats_keeps_direct () =
  K.Boot.boot ();
  Channel.set_direct_marshaling true;
  Channel.reset_stats ();
  check_bool "reset_stats keeps direct marshaling" true
    (Channel.direct_marshaling ());
  K.Boot.boot ();
  check_bool "boot restores the default" false
    (Channel.direct_marshaling ())

let test_channel_fault_raises_failure () =
  K.Boot.boot ();
  K.Faultinject.arm ~seed:7
    [
      K.Faultinject.spec ~site:"xpc.frob" ~kind:K.Faultinject.Xpc_timeout
        ~trigger:K.Faultinject.Always ();
    ];
  let observed = ref None in
  ignore
    (K.Sched.spawn (fun () ->
         try
           ignore
             (Channel.call ~target:Domain.Driver_lib ~payload_bytes:0
                ~reply_bytes:0 ~context:"frob" (fun () -> 1))
         with Channel.Xpc_failure { attempts; _ } -> observed := Some attempts));
  K.Sched.run ();
  K.Faultinject.disarm ();
  check_bool "fails fast: one attempt" true (!observed = Some 1);
  let st = Channel.stats () in
  check "failure counted" 1 st.Channel.failures;
  check "no retry for a call with side effects" 0 st.Channel.retries

let test_channel_idempotent_retry () =
  K.Boot.boot ();
  K.Faultinject.arm ~seed:7
    [
      K.Faultinject.spec ~site:"xpc.read_config"
        ~kind:K.Faultinject.Xpc_timeout
        ~trigger:(K.Faultinject.Span (1, 1))
        ();
    ];
  let result = ref 0 in
  ignore
    (K.Sched.spawn (fun () ->
         result :=
           Channel.call ~target:Domain.Driver_lib ~payload_bytes:0
             ~reply_bytes:0 ~idempotent:true ~context:"read_config" (fun () ->
               99)));
  K.Sched.run ();
  K.Faultinject.disarm ();
  check "retried to success" 99 !result;
  let st = Channel.stats () in
  check "one failure" 1 st.Channel.failures;
  check "one retry" 1 st.Channel.retries

let test_channel_idempotent_exhausts () =
  K.Boot.boot ();
  K.Faultinject.arm ~seed:7
    [
      K.Faultinject.spec ~site:"xpc.read_config"
        ~kind:K.Faultinject.Xpc_timeout ~trigger:K.Faultinject.Always ();
    ];
  let attempts_seen = ref 0 in
  ignore
    (K.Sched.spawn (fun () ->
         try
           ignore
             (Channel.call ~target:Domain.Driver_lib ~payload_bytes:0
                ~reply_bytes:0 ~idempotent:true ~context:"read_config"
                (fun () -> ()))
         with Channel.Xpc_failure { attempts; _ } -> attempts_seen := attempts));
  K.Sched.run ();
  K.Faultinject.disarm ();
  check "gave up after three attempts" 3 !attempts_seen;
  let st = Channel.stats () in
  check "three failures" 3 st.Channel.failures;
  check "two retries" 2 st.Channel.retries

(* --- weak associations (the paper's proposed GC integration) --- *)

let test_tracker_weak_lives_while_referenced () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let obj = { count = 5 } in
  let addr = Addr.alloc ~size:16 in
  Objtracker.associate_weak tr ~addr ring_key obj;
  Gc.full_major ();
  (match Objtracker.find tr ~addr ring_key with
  | Some o -> check_bool "same object after GC" true (o == obj)
  | None -> Alcotest.fail "live object lost");
  check "weak count" 1 (Objtracker.weak_count tr);
  (* keep obj alive until here *)
  check "still mutable" 5 obj.count

let test_tracker_weak_collects_dropped () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:16 in
  (* allocate in an inner function so no local keeps the object alive *)
  let register () =
    let obj = { count = Random.int 100 } in
    Objtracker.associate_weak tr ~addr ring_key obj
  in
  register ();
  Gc.full_major ();
  Gc.full_major ();
  check_bool "entry dead after the driver dropped it" true
    (Objtracker.find tr ~addr ring_key = None);
  (* a second registration then sweep reclaims bookkeeping *)
  register ();
  Gc.full_major ();
  check "sweep reclaims dead entries" 1 (Objtracker.sweep tr);
  check "no weak entries left" 0 (Objtracker.weak_count tr)

let test_tracker_sweep_stat_and_index () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:16 in
  let register () =
    Objtracker.associate_weak tr ~addr ring_key { count = 1 }
  in
  register ();
  Gc.full_major ();
  Gc.full_major ();
  check "dead entry reclaimed" 1 (Objtracker.sweep tr);
  check "sweep pass counted" 1 (Objtracker.stats tr).Objtracker.sweeps;
  check "idle sweep reclaims nothing" 0 (Objtracker.sweep tr);
  check "but is still counted" 2 (Objtracker.stats tr).Objtracker.sweeps;
  (* the per-address index forgets swept entries too *)
  Alcotest.(check (list string))
    "index cleaned by sweep" [] (Objtracker.types_at tr ~addr);
  (* mixed strong + dead weak at one address: sweep only drops the dead
     weak entry and the index keeps the strong one *)
  Objtracker.associate tr ~addr (Univ.pack adapter_key { flags = 3 });
  register ();
  Gc.full_major ();
  Gc.full_major ();
  check "only the weak entry swept" 1 (Objtracker.sweep tr);
  Alcotest.(check (list string))
    "strong entry survives in the index" [ "e1000_adapter" ]
    (Objtracker.types_at tr ~addr)

(* --- sharding: the concurrent-dispatch tracker layout --- *)

let test_tracker_sharding_consistency () =
  K.Boot.boot ();
  let tr = Objtracker.create ~name:"shardtest" ~shards:4 () in
  check "shard count honoured" 4 (Objtracker.shard_count tr);
  (* Spread entries over the shards: nothing may be lost, every lookup
     must resolve to its own object, and the per-shard counters must sum
     exactly to the aggregate snapshot. *)
  let n = 64 in
  let addrs = Array.init n (fun _ -> Addr.alloc ~size:16) in
  Array.iter
    (fun addr -> Objtracker.associate tr ~addr (Univ.pack ring_key { count = addr }))
    addrs;
  check "all entries present" n (Objtracker.count tr);
  Array.iter
    (fun addr ->
      match Objtracker.find tr ~addr ring_key with
      | Some o -> check "lookup resolves to its own object" addr o.count
      | None -> Alcotest.fail "entry lost across shards")
    addrs;
  let per = Objtracker.shard_stats tr in
  check "one stats row per shard" 4 (Array.length per);
  let agg = Objtracker.stats tr in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 per in
  check "per-shard lookups sum to aggregate" agg.Objtracker.lookups
    (sum (fun s -> s.Objtracker.lookups));
  check "per-shard hits sum to aggregate" agg.Objtracker.hits
    (sum (fun s -> s.Objtracker.hits));
  check "per-shard registrations sum to aggregate" agg.Objtracker.registrations
    (sum (fun s -> s.Objtracker.registrations));
  let used =
    Array.fold_left
      (fun acc s -> if s.Objtracker.lookups > 0 then acc + 1 else acc)
      0 per
  in
  check_bool
    (Printf.sprintf "traffic spread over shards (%d of 4 used)" used)
    true (used > 1);
  (* each shard has its own combolock with its own counters *)
  let locks = Objtracker.shard_lock_stats tr in
  check "one lock per shard" 4 (Array.length locks);
  (* exactly-once removal, across whatever shard each address landed in *)
  Array.iter
    (fun addr -> Objtracker.remove tr ~addr ~type_id:"e1000_tx_ring")
    addrs;
  check "empty after per-entry removes" 0 (Objtracker.count tr)

let test_tracker_sharded_sweep () =
  K.Boot.boot ();
  let tr = Objtracker.create ~name:"sweeptest" ~shards:4 () in
  let n = 32 in
  let keep = ref [] in
  (* register in an inner function so dropped objects really die *)
  let register i =
    let addr = Addr.alloc ~size:16 in
    let obj = { count = i } in
    Objtracker.associate_weak tr ~addr ring_key obj;
    if i mod 2 = 0 then keep := (addr, obj) :: !keep
  in
  for i = 1 to n do
    register i
  done;
  check "all weak entries registered" n (Objtracker.weak_count tr);
  Gc.full_major ();
  Gc.full_major ();
  (* one sweep pass covers every shard: exactly the dropped half dies,
     no live entry is reclaimed, none is counted twice *)
  check "dropped half reclaimed in one pass" (n / 2) (Objtracker.sweep tr);
  check "kept half survives" (n / 2) (Objtracker.weak_count tr);
  List.iter
    (fun (addr, obj) ->
      match Objtracker.find tr ~addr ring_key with
      | Some o -> check_bool "survivor identity intact" true (o == obj)
      | None -> Alcotest.fail "live weak entry lost by sharded sweep")
    !keep;
  check "second pass reclaims nothing" 0 (Objtracker.sweep tr);
  check "whole passes counted, not per-shard" 2
    (Objtracker.stats tr).Objtracker.sweeps

let test_tracker_weak_removed_explicitly () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let obj = { count = 1 } in
  let addr = Addr.alloc ~size:16 in
  Objtracker.associate_weak tr ~addr ring_key obj;
  Objtracker.remove tr ~addr ~type_id:"e1000_tx_ring";
  check "removed" 0 (Objtracker.weak_count tr);
  check_bool "gone" true (Objtracker.find tr ~addr ring_key = None);
  check "object untouched" 1 obj.count

(* --- direct-marshaling ablation (the optimization of section 4) --- *)

let test_channel_direct_marshaling_cheaper () =
  K.Boot.boot ();
  let cost_of_call () =
    let spent = ref 0 in
    ignore
      (K.Sched.spawn (fun () ->
           let t0 = K.Clock.now () in
           ignore
             (Channel.call ~target:Domain.Decaf_driver ~payload_bytes:256
                ~reply_bytes:0 (fun () -> ()));
           spent := K.Clock.now () - t0));
    K.Sched.run ();
    !spent
  in
  Channel.set_direct_marshaling false;
  let indirect = cost_of_call () in
  let st = Channel.snapshot () in
  check "indirect pays both legs" 1 st.Channel.c_java_calls;
  Channel.reset_stats ();
  Channel.set_direct_marshaling true;
  let direct = cost_of_call () in
  let st = Channel.snapshot () in
  check "direct skips the c/java leg" 0 st.Channel.c_java_calls;
  check "still one kernel/user crossing" 1 st.Channel.kernel_user_calls;
  check_bool "direct transfer is cheaper" true (direct < indirect);
  Channel.set_direct_marshaling false

let prop_xdr_garbage_never_escapes =
  (* feeding arbitrary bytes to the decoder must fail only with
     Decode_error, never some other exception or a crash *)
  QCheck.Test.make ~name:"xdr decoder is total on garbage" ~count:300
    QCheck.(string_of_size Gen.(int_range 0 64))
    (fun junk ->
      let d = Xdr.Dec.of_bytes (Bytes.of_string junk) in
      let safe f = match f d with _ -> true | exception Xdr.Decode_error _ -> true in
      safe Xdr.Dec.int && safe Xdr.Dec.bool
      && safe (fun d -> Xdr.Dec.string d)
      && safe (fun d -> Xdr.Dec.array_var d Xdr.Dec.int))

let prop_plan_union_idempotent_commutative =
  let open QCheck in
  let gen_plan =
    Gen.map
      (fun fields ->
        let fields =
          List.sort_uniq (fun (a, _) (b, _) -> compare a b) fields
        in
        Marshal_plan.make ~type_id:"t" fields)
      Gen.(
        small_list
          (pair
             (oneofl [ "a"; "b"; "c"; "d"; "e" ])
             (oneofl
                [ Marshal_plan.Read; Marshal_plan.Write; Marshal_plan.Read_write ])))
  in
  let norm p =
    List.sort compare (Marshal_plan.fields p)
  in
  Test.make ~name:"plan union is idempotent and commutative" ~count:200
    (QCheck.make (Gen.pair gen_plan gen_plan))
    (fun (p, q) ->
      norm (Marshal_plan.union p p) = norm p
      && norm (Marshal_plan.union p q) = norm (Marshal_plan.union q p))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_xdr_int_roundtrip;
      prop_xdr_hyper_roundtrip;
      prop_xdr_string_roundtrip_and_alignment;
      prop_xdr_mixed_sequence;
      prop_xdr_garbage_never_escapes;
      prop_plan_union_idempotent_commutative;
    ]

(* --- reference models: the tracker and the dirty marks against naive
   association lists, over random operation sequences. They pin what
   callers see, not how the state is laid out. --- *)

type tracker_op =
  | Associate of int * int  (* address index, type index *)
  | Associate_weak of int * int
  | Issue of int * int
  | Resolve of int * int  (* handle index (history or 0), type index *)
  | Remove of int * int
  | Remove_all of int
  | Remove_by_handle of int
  | Clear

let model_addrs = [| 0x1000; 0x2000; 0x3000 |]

(* two types at one address: a structure and one embedded at offset 0 *)
let model_types = [| "e1000_adapter"; "e1000_tx_ring" |]

let show_tracker_op = function
  | Associate (a, t) -> Printf.sprintf "associate %d %d" a t
  | Associate_weak (a, t) -> Printf.sprintf "associate_weak %d %d" a t
  | Issue (a, t) -> Printf.sprintf "issue %d %d" a t
  | Resolve (h, t) -> Printf.sprintf "resolve h%d %d" h t
  | Remove (a, t) -> Printf.sprintf "remove %d %d" a t
  | Remove_all a -> Printf.sprintf "remove_all %d" a
  | Remove_by_handle h -> Printf.sprintf "remove_by_handle h%d" h
  | Clear -> "clear"

let gen_tracker_op =
  let open QCheck.Gen in
  let a = int_bound 2 and t = int_bound 1 and h = int_bound 7 in
  frequency
    [
      (4, map2 (fun a t -> Associate (a, t)) a t);
      (2, map2 (fun a t -> Associate_weak (a, t)) a t);
      (4, map2 (fun a t -> Issue (a, t)) a t);
      (4, map2 (fun h t -> Resolve (h, t)) h t);
      (2, map2 (fun a t -> Remove (a, t)) a t);
      (1, map (fun a -> Remove_all a) a);
      (2, map (fun h -> Remove_by_handle h) h);
      (1, return Clear);
    ]

(* The rejection a refused handle names, from its reason. *)
let rejection reason =
  let has = Testutil.contains reason in
  if has "no such shard" then "no shard"
  else if has "not issued" then "not issued"
  else if has "cross-type" then "cross-type"
  else if has "generation" then "stale generation"
  else "other: " ^ reason

let prop_tracker_model =
  QCheck.Test.make ~name:"objtracker agrees with an association-list model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_tracker_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_tracker_op))
    (fun ops ->
      K.Boot.boot ();
      let tr = Objtracker.create () in
      (* the model: (addr, type) pairs, live handles, every handle ever
         issued (oldest first) and the rejections counted *)
      let strong = ref [] and weak = ref [] and live = ref [] in
      let history = ref [] and rejected = ref 0 in
      let keep = ref [] (* weak objects stay reachable *) in
      let pair a t = (model_addrs.(a), model_types.(t)) in
      let handle_at i =
        match !history with
        | [] -> 0
        | hs -> if i = 0 then 0 else List.nth hs ((i - 1) mod List.length hs)
      in
      let drop key = List.filter (fun k -> k <> key) in
      let revoke key = live := List.filter (fun (_, k) -> k <> key) !live in
      let remove key =
        strong := drop key !strong;
        weak := drop key !weak;
        revoke key
      in
      let pack t =
        if t = 0 then Univ.pack adapter_key { flags = 0 }
        else Univ.pack ring_key { count = 0 }
      in
      let associate_weak addr key v =
        keep := Univ.pack key v :: !keep;
        Objtracker.associate_weak tr ~addr key v
      in
      let step op =
        match op with
        | Associate (a, t) ->
            let addr, ty = pair a t in
            Objtracker.associate tr ~addr (pack t);
            strong := (addr, ty) :: drop (addr, ty) !strong;
            true
        | Associate_weak (a, t) ->
            let addr, ty = pair a t in
            if t = 0 then associate_weak addr adapter_key { flags = 0 }
            else associate_weak addr ring_key { count = 0 };
            weak := (addr, ty) :: drop (addr, ty) !weak;
            true
        | Issue (a, t) -> (
            let addr, ty = pair a t in
            let h = Objtracker.issue tr ~addr ~type_id:ty in
            match List.find_opt (fun (_, k) -> k = (addr, ty)) !live with
            | Some (h', _) -> h = h'
            | None ->
                let fresh = h > 0 && not (List.mem h !history) in
                live := (h, (addr, ty)) :: !live;
                history := !history @ [ h ];
                fresh)
        | Resolve (i, t) ->
            let h = handle_at i and ty = model_types.(t) in
            let want =
              match List.assoc_opt h !live with
              | Some (addr, ty') when ty' = ty -> Ok addr
              | Some _ -> Error "cross-type"
              | None -> Error (if h <= 0 then "no shard" else "not issued")
            in
            if Result.is_error want then incr rejected;
            Result.map_error rejection
              (Objtracker.resolve tr ~handle:h ~type_id:ty)
            = want
        | Remove (a, t) ->
            let addr, ty = pair a t in
            Objtracker.remove tr ~addr ~type_id:ty;
            remove (addr, ty);
            true
        | Remove_all a ->
            let addr = model_addrs.(a) in
            Objtracker.remove_all tr ~addr;
            let other (addr', _) = addr' <> addr in
            strong := List.filter other !strong;
            weak := List.filter other !weak;
            live := List.filter (fun (_, k) -> other k) !live;
            true
        | Remove_by_handle i ->
            let h = handle_at i in
            Objtracker.remove_by_handle tr ~handle:h;
            (match List.assoc_opt h !live with
            | Some key -> remove key
            | None -> incr rejected);
            true
        | Clear ->
            Objtracker.clear tr;
            strong := [];
            weak := [];
            live := [];
            true
      in
      let agrees () =
        let at addr = List.filter (fun (a, _) -> a = addr) in
        Array.for_all
          (fun addr ->
            let types =
              List.sort_uniq compare
                (List.map snd (at addr !strong @ at addr !weak))
            in
            Objtracker.types_at tr ~addr = types
            && Array.for_all
                 (fun ty ->
                   Objtracker.mem tr ~addr ~type_id:ty = List.mem ty types)
                 model_types)
          model_addrs
        && Objtracker.count tr = List.length !strong
        && Objtracker.handle_count tr = List.length !live
        && Objtracker.entries tr = List.length !strong + List.length !live
        && (Objtracker.stats tr).Objtracker.rejected = !rejected
      in
      List.for_all (fun op -> step op && agrees ()) ops)

type dirty_op = Mark of int | Snapshot | Ack of int | Forged_ack of int

let show_dirty_op = function
  | Mark i -> Printf.sprintf "mark %d" i
  | Snapshot -> "snapshot"
  | Ack i -> Printf.sprintf "ack s%d" i
  | Forged_ack k -> Printf.sprintf "forged ack +%d" k

let dirty_samples () =
  match K.Latency.find "xpc.dirty" with Some h -> K.Latency.count h | None -> 0

let prop_dirty_model =
  let fields = 4 in
  QCheck.Test.make ~name:"dirty marks agree with a generation model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_dirty_op ops))
       QCheck.Gen.(
         list_size (int_range 1 40)
           (frequency
              [
                (4, map (fun i -> Mark i) (int_bound (fields - 1)));
                (2, return Snapshot);
                (2, map (fun i -> Ack i) (int_bound 7));
                (1, map (fun k -> Forged_ack k) (int_range 1 3));
              ])))
    (fun ops ->
      K.Boot.boot ();
      let d = Marshal_plan.Dirty.create ~owner:"model" fields in
      (* the model: field -> generation of its last unacknowledged write *)
      let gen = ref 0 and marks = ref [] and snaps = ref [] in
      let step = function
        | Mark i ->
            Marshal_plan.Dirty.mark d i;
            incr gen;
            marks := (i, !gen) :: List.remove_assoc i !marks;
            true
        | Snapshot ->
            snaps := Marshal_plan.Dirty.snapshot d :: !snaps;
            List.hd !snaps = !gen
        | Ack i -> (
            match !snaps with
            | [] -> true
            | ss ->
                let upto = List.nth ss (i mod List.length ss) in
                let before = dirty_samples () in
                Marshal_plan.Dirty.acknowledge d ~upto;
                let acked, kept =
                  List.partition (fun (_, g) -> g <= upto) !marks
                in
                marks := kept;
                dirty_samples () - before = List.length acked)
        | Forged_ack k -> (
            let issued = List.fold_left max 0 !snaps in
            let before = dirty_samples () in
            match Marshal_plan.Dirty.acknowledge d ~upto:(issued + k) with
            | () -> false
            | exception Boundary.Boundary_violation v ->
                v.type_id = "model" && v.field = "ack"
                && dirty_samples () = before)
      in
      let agrees () =
        Marshal_plan.Dirty.pending d = List.length !marks
        && Marshal_plan.Dirty.issued d = List.fold_left max 0 !snaps
        && List.for_all
             (fun i ->
               Marshal_plan.Dirty.test d i = List.mem_assoc i !marks)
             (List.init fields Fun.id)
      in
      List.for_all (fun op -> step op && agrees ()) ops)

let model_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_tracker_model; prop_dirty_model ]

(* --- dispatch: worker lanes are bound per thread --- *)

let test_dispatch_admission_per_thread () =
  (* One worker. Thread A suspends mid-crossing; thread B then crosses
     into the same domain. The lane binding is per Sched thread, so B
     must go through slot admission and block until A's crossing exits —
     with a process-global binding B would match the nested-crossing
     check and overlap A inside the single-slot pool, and B's notes
     would land on A's lane. *)
  K.Boot.boot ();
  let order = ref [] in
  let log tag = order := tag :: !order in
  ignore
    (K.Sched.spawn ~name:"a" (fun () ->
         Dispatch.with_worker ~target:Domain.Decaf_driver
           (fun () () ->
             log "a-enter";
             K.Sched.sleep_ns 1_000_000;
             log "a-exit")
           () ()));
  ignore
    (K.Sched.spawn ~name:"b" (fun () ->
         K.Sched.sleep_ns 10_000;
         (* B serves no crossing here: this charge lands off-lane, not
            on A's suspended lane. *)
         Dispatch.charge 777;
         Dispatch.with_worker ~target:Domain.Decaf_driver
           (fun () () -> log "b-enter")
           () ()));
  K.Sched.run ();
  Alcotest.(check (list string))
    "b admitted only after a's crossing exits"
    [ "a-enter"; "a-exit"; "b-enter" ]
    (List.rev !order);
  match Dispatch.pool_stats () with
  | [ p ] ->
      check "both crossings admitted" 2 p.Dispatch.admissions;
      check "second crossing waited for the slot" 1 p.Dispatch.blocked_acquires;
      check "no atomic-context oversubscription" 0 p.Dispatch.forced;
      let busy = Array.fold_left ( + ) 0 p.Dispatch.lane_busy_ns in
      check "lanes hold only the two admission charges"
        (2 * K.Cost.current.xpc_dispatch_ns)
        busy;
      check "b's charge is on the off-lane account"
        (p.Dispatch.critical_path_ns + 777)
        (Dispatch.overhead_ns ())
  | ps ->
      Alcotest.fail
        (Printf.sprintf "expected one pool, got %d" (List.length ps))

(* --- capability handles --- *)

let rejects f =
  try
    ignore (f ());
    false
  with Boundary.Boundary_violation _ -> true

let test_handle_roundtrip () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let obj = { count = 3 } in
  let addr = Addr.alloc ~size:64 in
  Objtracker.associate tr ~addr (Univ.pack ring_key obj);
  let h = Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring" in
  check_bool "handle does not leak the address" true (h <> addr);
  (match Objtracker.resolve tr ~handle:h ~type_id:"e1000_tx_ring" with
  | Ok a -> check "resolves to the address" addr a
  | Error e -> Alcotest.fail e);
  (match Objtracker.find_by_handle tr ~handle:h ring_key with
  | Some o -> check_bool "same object" true (o == obj)
  | None -> Alcotest.fail "find_by_handle missed");
  check "one live handle" 1 (Objtracker.handle_count tr);
  (* issuing again for the same association returns the same capability *)
  check "issue is idempotent" h
    (Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring")

let test_handle_forged_rejected () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  check_bool "never-issued handle refused" true
    (Result.is_error
       (Objtracker.resolve tr ~handle:0x5bad_f00d ~type_id:"e1000_tx_ring"));
  check_bool "non-positive handle refused" true
    (Result.is_error (Objtracker.resolve tr ~handle:0 ~type_id:"e1000_tx_ring"));
  check "rejections counted" 2 (Objtracker.stats tr).Objtracker.rejected

let test_handle_stale_after_remove () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:64 in
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 0 });
  let h = Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring" in
  Objtracker.remove_by_handle tr ~handle:h;
  check "association revoked" 0 (Objtracker.count tr);
  check "handle table emptied" 0 (Objtracker.handle_count tr);
  check_bool "replayed handle is stale" true
    (Result.is_error (Objtracker.resolve tr ~handle:h ~type_id:"e1000_tx_ring"));
  (* reincarnation at the same address gets a fresh generation *)
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 1 });
  let h' = Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring" in
  check_bool "new incarnation, new capability" true (h' <> h);
  check_bool "old handle still dead" true
    (Result.is_error (Objtracker.resolve tr ~handle:h ~type_id:"e1000_tx_ring"))

let test_handle_cross_type_rejected () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:256 in
  Objtracker.associate tr ~addr (Univ.pack adapter_key { flags = 0 });
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 0 });
  let h = Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring" in
  check_bool "presented as the wrong type" true
    (Result.is_error (Objtracker.resolve tr ~handle:h ~type_id:"e1000_adapter"));
  check_bool "still valid for its own type" true
    (Result.is_ok (Objtracker.resolve tr ~handle:h ~type_id:"e1000_tx_ring"))

let test_handle_invalid_after_clear () =
  K.Boot.boot ();
  let tr = Objtracker.create () in
  let addr = Addr.alloc ~size:64 in
  Objtracker.associate tr ~addr (Univ.pack ring_key { count = 0 });
  let h = Objtracker.issue tr ~addr ~type_id:"e1000_tx_ring" in
  Objtracker.clear tr;
  check "no handles survive a clear" 0 (Objtracker.handle_count tr);
  check_bool "pre-clear handle refused after restart" true
    (Result.is_error (Objtracker.resolve tr ~handle:h ~type_id:"e1000_tx_ring"))

(* --- inbound guards --- *)

let guard_plan () =
  Marshal_plan.make ~type_id:"g"
    [
      ("ro", Marshal_plan.Read);
      ("n", Marshal_plan.Read_write);
      ("mode", Marshal_plan.Write);
      ("buf", Marshal_plan.Read_write);
      ("pos", Marshal_plan.Read_write);
      ("up", Marshal_plan.Read_write);
    ]

let guard_rules () =
  Guard.make (guard_plan ())
    [
      ("n", Guard.Range (0, 100));
      ("mode", Guard.Enum [ 1; 2; 4 ]);
      ("buf", Guard.Max_len 4);
      ("pos", Guard.Non_negative);
    ]

let test_guard_rules_enforced () =
  K.Boot.boot ();
  let g = guard_rules () in
  check "in-range value passes through" 50 (Guard.int_field g ~field:"n" 50);
  check_bool "range high" true (rejects (fun () -> Guard.int_field g ~field:"n" 101));
  check_bool "range low" true (rejects (fun () -> Guard.int_field g ~field:"n" (-1)));
  check_bool "enum violation" true
    (rejects (fun () -> Guard.int_field g ~field:"mode" 3));
  check "enum member passes" 4 (Guard.int_field g ~field:"mode" 4);
  check_bool "oversize array" true
    (rejects (fun () -> Guard.array_field g ~field:"buf" (Array.make 5 0)));
  check "bounded array passes" 4
    (Array.length (Guard.array_field g ~field:"buf" (Array.make 4 0)));
  check_bool "negative position" true
    (rejects (fun () -> Guard.int_field g ~field:"pos" (-7)));
  check_bool "unruled field gets writability only" true
    (Guard.bool_field g ~field:"up" true);
  check "validator counted each violation" 5 (Guard.rejections g);
  check_bool "machine-wide rejected counter moved" true
    (Boundary.totals.Boundary.rejected >= 5)

let test_guard_readonly_field () =
  K.Boot.boot ();
  let g = guard_rules () in
  (* the plan marks "ro" Read: kernel-to-user only. Any inbound value,
     however innocuous, is a write through a read-only view. *)
  check_bool "read-only int write refused" true
    (rejects (fun () -> Guard.int_field g ~field:"ro" 0));
  check_bool "unknown field refused too" true
    (rejects (fun () -> Guard.int_field g ~field:"nosuch" 1))

let test_guard_disabled_passthrough () =
  K.Boot.boot ();
  let g = guard_rules () in
  Guard.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Guard.reset ())
    (fun () ->
      check_bool "axis off" false (Guard.is_enabled ());
      check "out-of-range value passes unchecked" 101
        (Guard.int_field g ~field:"n" 101);
      check "even read-only fields pass" 9 (Guard.int_field g ~field:"ro" 9);
      check "no rejections recorded" 0 (Guard.rejections g);
      (* the payload size bound is not part of the axis: still enforced *)
      check_bool "payload bound enforced with axis off" true
        (rejects (fun () ->
             Guard.check_inbound_bytes g (Guard.limits.Guard.max_inbound_bytes + 1))))

let test_guard_configure_fallback () =
  K.Boot.boot ();
  Fun.protect
    ~finally:(fun () -> Guard.reset ())
    (fun () ->
      Guard.configure ~max_inbound_bytes:16 ();
      check "below-minimum setting falls back to default" 4096
        Guard.limits.Guard.max_inbound_bytes;
      Guard.configure ~max_inbound_bytes:128 ();
      check "valid setting honored" 128 Guard.limits.Guard.max_inbound_bytes;
      Guard.configure ~max_batch_queue:0 ();
      check "zero queue bound falls back to default" 1024
        Guard.limits.Guard.max_batch_queue;
      Guard.configure ~max_batch_queue:8 ();
      check "valid queue bound honored" 8 Guard.limits.Guard.max_batch_queue)

(* --- a crossing leaves no trace when its callback raises --- *)

exception Callee_failed

(* The callback raises at once, or after blocking on a Waitq inside the
   crossing. Afterwards the in-flight count is back to 0, the caller's
   lane is unbound (a [Dispatch.charge] lands off-lane), its domain and
   Boundary scope are restored, and a nested crossing into the same
   domain still stays on the caller's lane: one worker, so a second
   admission would block on its own slot. *)
let crossing_unwinds ~block () =
  K.Boot.boot ();
  let wq = K.Sync.Waitq.create ~name:"callee" () in
  let lanes () =
    match Dispatch.pool_stats () with
    | [ p ] ->
        ( p.Dispatch.admissions,
          Array.fold_left ( + ) 0 p.Dispatch.lane_busy_ns )
    | _ -> Alcotest.fail "one pool expected"
  in
  let nested = ref false in
  ignore
    (K.Sched.spawn ~name:"caller" (fun () ->
         Boundary.scoped "outer" (fun () ->
             (try
                Channel.call ~target:Domain.Decaf_driver ~payload_bytes:0
                  ~reply_bytes:0 (fun () ->
                    Boundary.scoped "inner" (fun () ->
                        if block then K.Sync.Waitq.wait wq;
                        raise Callee_failed))
              with Callee_failed -> ());
             check "nothing in flight" 0
               (Channel.in_flight Domain.Decaf_driver);
             check_bool "caller's domain restored" true
               (Domain.current () = Domain.Kernel);
             Boundary.note_rejected ();
             check "the outer scope is current again" 1
               (Boundary.rejected_for "outer");
             check "the inner scope is gone" 0 (Boundary.rejected_for "inner");
             let admitted, busy = lanes () in
             let overhead = Dispatch.overhead_ns () in
             Dispatch.charge 777;
             check "no lane charged after the crossing" busy (snd (lanes ()));
             check "the charge is on the off-lane account" (overhead + 777)
               (Dispatch.overhead_ns ());
             Channel.call ~target:Domain.Decaf_driver ~payload_bytes:0
               ~reply_bytes:0 (fun () ->
                 Channel.call ~target:Domain.Kernel ~payload_bytes:0
                   ~reply_bytes:0 (fun () ->
                     Channel.call ~target:Domain.Decaf_driver ~payload_bytes:0
                       ~reply_bytes:0 (fun () -> nested := true)));
             check "the nested crossing stayed on the caller's lane"
               (admitted + 1) (fst (lanes ())))));
  if block then
    ignore
      (K.Sched.spawn ~name:"waker" (fun () ->
           K.Sched.sleep_ns 10_000;
           ignore (K.Sync.Waitq.wake_one wq)));
  K.Sched.run ();
  check_bool "the nested crossing ran" true !nested;
  check "nothing in flight at the end" 0 (Channel.in_flight Domain.Decaf_driver)

(* --- allocation per crossing on the control path --- *)

(* Words per call of [f], on the workloads' XPC configuration (batch,
   delta, 4 workers, ring, guard), after 100 warm-up calls, inside a
   thread running in [domain]. *)
let words_per_call ~domain f =
  K.Boot.boot ();
  Batch.set_enabled true;
  Marshal_plan.set_delta_enabled true;
  Dispatch.set_workers 4;
  Guard.set_enabled true;
  Ring.set_enabled true;
  let n = 10_000 and words = ref nan in
  ignore
    (K.Sched.spawn ~name:"probe" (fun () ->
         Domain.with_domain domain (fun () ->
             for _ = 1 to 100 do
               f ()
             done;
             let w0 = Gc.minor_words () in
             for _ = 1 to n do
               f ()
             done;
             words := (Gc.minor_words () -. w0) /. float_of_int n)));
  K.Sched.run ();
  !words

(* A kernel-to-decaf upcall of 64 + 64 bytes: the in-flight counts and
   pools are indexed by domain and the serving lane by tid, so the
   crossing hashes nothing and builds no fault-site string; its byte
   counts are plain ints, its birth an int, and the lane gets [f] as an
   argument, so it allocates nothing at all. *)
let test_channel_call_alloc () =
  let words =
    words_per_call ~domain:Domain.Kernel (fun () ->
        Channel.call ~target:Domain.Decaf_driver ~payload_bytes:64
          ~reply_bytes:64 ignore)
  in
  check_bool (Printf.sprintf "%.1f words per upcall = 0" words) true
    (words = 0.)

let test_channel_downcall_alloc () =
  let words =
    words_per_call ~domain:Domain.Decaf_driver (fun () ->
        Channel.call ~target:Domain.Kernel ~payload_bytes:8 ~reply_bytes:0
          ignore)
  in
  check_bool (Printf.sprintf "%.1f words per downcall = 0" words) true
    (words = 0.)

(* --- allocation per boundary check: every probe is keyed by what the
   caller holds (address, handle slot, field position), not by a
   string-built key --- *)

(* One write through a delta crossing: mark a field, snapshot, then
   acknowledge. The marks are int arrays indexed by position. *)
let test_dirty_alloc () =
  let d = Marshal_plan.Dirty.create 7 in
  let words =
    words_per_call ~domain:Domain.Kernel (fun () ->
        Marshal_plan.Dirty.mark d 3;
        Marshal_plan.Dirty.acknowledge d
          ~upto:(Marshal_plan.Dirty.snapshot d))
  in
  check_bool (Printf.sprintf "%.1f words per mark and ack <= 8" words) true
    (words <= 8.)

(* A passing check names its field by string, as perfbench's micro
   does; Guard scans the table's names and reads the rule by position. *)
let test_guard_int_field_alloc () =
  let words =
    words_per_call ~domain:Domain.Kernel (fun () ->
        ignore
          (Guard.int_field Decaf_drivers.E1000_objects.guard
             ~field:"msg_enable" 7))
  in
  check_bool (Printf.sprintf "%.1f words per int_field = 0" words) true
    (words = 0.)

(* A user-level probe of an address with nothing filed, as a view
   lookup before the first crossing: one table probe by address, with
   no key to build. *)
let test_tracker_mem_alloc () =
  let tr = Objtracker.create () in
  Objtracker.associate tr ~addr:0x4000 (Univ.pack adapter_key { flags = 1 });
  let words =
    words_per_call ~domain:Domain.Decaf_driver (fun () ->
        ignore (Objtracker.mem tr ~addr:0x5000 ~type_id:"e1000_adapter"))
  in
  check_bool (Printf.sprintf "%.1f words per mem <= 12" words) true
    (words <= 12.)

let test_tracker_issue_resolve_alloc () =
  let tr = Objtracker.create () in
  let issue () = Objtracker.issue tr ~addr:0x4000 ~type_id:"e1000_adapter" in
  let h = issue () in
  let issue_words =
    words_per_call ~domain:Domain.Kernel (fun () -> ignore (issue ()))
  in
  let resolve_words =
    words_per_call ~domain:Domain.Kernel (fun () ->
        ignore (Objtracker.resolve tr ~handle:h ~type_id:"e1000_adapter"))
  in
  check_bool (Printf.sprintf "%.1f words per issue <= 11" issue_words) true
    (issue_words <= 11.);
  check_bool (Printf.sprintf "%.1f words per resolve <= 12" resolve_words)
    true (resolve_words <= 12.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_xpc"
    [
      ( "xdr",
        [
          tc "scalars" test_xdr_scalars;
          tc "padding" test_xdr_padding;
          tc "arrays and options" test_xdr_arrays_options;
          tc "truncation detected" test_xdr_truncation_detected;
          tc "range checks" test_xdr_range_checks;
        ] );
      ( "objtracker",
        [
          tc "roundtrip" test_tracker_roundtrip;
          tc "type disambiguation" test_tracker_type_disambiguation;
          tc "remove" test_tracker_remove;
          tc "stats" test_tracker_stats;
          tc "same pointer, two type ids" test_tracker_same_pointer_two_types;
          tc "lookup after clear" test_tracker_lookup_after_clear;
          tc "sweep stat and index" test_tracker_sweep_stat_and_index;
          tc "sharding consistency" test_tracker_sharding_consistency;
          tc "sharded sweep" test_tracker_sharded_sweep;
        ] );
      ( "marshal_plan",
        [
          tc "directions" test_plan_directions;
          tc "union" test_plan_union;
          tc "union order and pp" test_plan_union_order_and_pp;
          tc "duplicates rejected" test_plan_duplicate_rejected;
        ] );
      ( "channel",
        [
          tc "same domain free" test_channel_same_domain_free;
          tc "kernel/user accounting" test_channel_kernel_user_accounting;
          tc "kernel->java pays both" test_channel_kernel_to_java_pays_both;
          tc "c/java cheaper" test_channel_c_java_cheaper_than_kernel;
          tc "no upcall under spinlock" test_channel_upcall_blocked_under_spinlock;
          tc "no upcall from irq" test_channel_upcall_blocked_in_irq;
          tc "direct marshaling ablation" test_channel_direct_marshaling_cheaper;
          tc "reset_stats keeps config" test_channel_reset_stats_keeps_direct;
          tc "fault raises Xpc_failure" test_channel_fault_raises_failure;
          tc "idempotent call retried" test_channel_idempotent_retry;
          tc "idempotent retries exhausted" test_channel_idempotent_exhausts;
          tc "raising callback unwinds" (crossing_unwinds ~block:false);
          tc "raising after wake-up unwinds" (crossing_unwinds ~block:true);
          tc "call allocation" test_channel_call_alloc;
          tc "downcall allocation" test_channel_downcall_alloc;
        ] );
      ( "dispatch",
        [ tc "admission is per thread" test_dispatch_admission_per_thread ] );
      ( "objtracker-handles",
        [
          tc "roundtrip" test_handle_roundtrip;
          tc "forged rejected" test_handle_forged_rejected;
          tc "stale after remove" test_handle_stale_after_remove;
          tc "cross-type rejected" test_handle_cross_type_rejected;
          tc "invalid after clear" test_handle_invalid_after_clear;
        ] );
      ( "guard",
        [
          tc "rules enforced" test_guard_rules_enforced;
          tc "read-only field" test_guard_readonly_field;
          tc "disabled axis passthrough" test_guard_disabled_passthrough;
          tc "configure fallback" test_guard_configure_fallback;
        ] );
      ( "objtracker-weak",
        [
          tc "lives while referenced" test_tracker_weak_lives_while_referenced;
          tc "collected when dropped" test_tracker_weak_collects_dropped;
          tc "explicit remove" test_tracker_weak_removed_explicitly;
        ] );
      ("xdr-properties", qcheck_cases);
      ("models", model_cases);
      ( "allocation",
        [
          tc "dirty mark and ack" test_dirty_alloc;
          tc "guard int_field" test_guard_int_field_alloc;
          tc "objtracker mem" test_tracker_mem_alloc;
          tc "objtracker issue and resolve" test_tracker_issue_resolve_alloc;
        ] );
    ]
