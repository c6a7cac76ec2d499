(* Tests for the decaf runtime: error discipline, Jeannie bridge, helper
   routines, parameter-checker classes, and the nuclear deferral worker. *)

open Decaf_runtime
module K = Decaf_kernel
module Xpc = Decaf_xpc

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Errors --- *)

let test_errors_check_and_to_errno () =
  Errors.check ~driver:"t" ~context:"fine" 0;
  Errors.check ~driver:"t" ~context:"fine" 7;
  check "success maps to 0" 0 (Errors.to_errno (fun () -> ()));
  check "Hw_error maps to -errno" (-Errors.eio)
    (Errors.to_errno (fun () ->
         Errors.check ~driver:"t" ~context:"io" (-Errors.eio)));
  match Errors.to_result (fun () -> 42) with
  | Ok v -> check "ok result" 42 v
  | Error _ -> Alcotest.fail "expected Ok"

let test_errors_protect_runs_cleanup_only_on_failure () =
  let cleanups = ref 0 in
  let v =
    Errors.protect ~cleanup:(fun () -> incr cleanups) (fun () -> 10)
  in
  check "value through" 10 v;
  check "no cleanup on success" 0 !cleanups;
  (try
     Errors.protect ~cleanup:(fun () -> incr cleanups) (fun () ->
         Errors.throw ~driver:"t" ~errno:Errors.enomem "alloc")
   with Errors.Hw_error _ -> ());
  check "cleanup ran once on failure" 1 !cleanups

let test_errors_protect_nests_in_order () =
  (* the Figure 4 shape: inner cleanups run before outer ones *)
  let order = ref [] in
  let note tag () = order := tag :: !order in
  (try
     Errors.protect ~cleanup:(note "outer") (fun () ->
         Errors.protect ~cleanup:(note "inner") (fun () ->
             Errors.throw ~driver:"t" ~errno:Errors.eio "deep"))
   with Errors.Hw_error _ -> ());
  Alcotest.(check (list string)) "inner unwinds first" [ "outer"; "inner" ] !order

(* --- Jeannie --- *)

let test_jeannie_direct_switches_domain () =
  K.Boot.boot ();
  Xpc.Domain.with_domain Xpc.Domain.Decaf_driver (fun () ->
      let d =
        Jeannie.direct
          (fun () () -> Xpc.Domain.to_string (Xpc.Domain.current ()))
          () ()
      in
      Alcotest.(check string) "ran in the driver library" "driver-library" d);
  check "counted" 1 (Jeannie.direct_call_count ());
  check "direct calls are not XPC" 0 (Xpc.Channel.stats ()).Xpc.Channel.c_java_calls

let test_jeannie_via_xpc_counts () =
  K.Boot.boot ();
  Xpc.Domain.with_domain Xpc.Domain.Decaf_driver (fun () ->
      ignore (Jeannie.via_xpc ~bytes:64 (fun () -> ())));
  check "one C/Java crossing" 1 (Xpc.Channel.stats ()).Xpc.Channel.c_java_calls

(* --- Runtime helpers --- *)

let test_runtime_start_once () =
  K.Boot.boot ();
  check_bool "not started" false (Runtime.started ());
  Runtime.start ();
  let t1 = K.Clock.now () in
  check_bool "startup cost charged" true (t1 >= K.Cost.current.jvm_startup_ns);
  Runtime.start ();
  check "second start free" t1 (K.Clock.now ())

let test_runtime_sizeof_registry () =
  K.Boot.boot ();
  Runtime.Helpers.register_sizeof "e1000_adapter" 512;
  check "sizeof" 512 (Runtime.Helpers.sizeof "e1000_adapter");
  check_bool "unknown sizeof is a bug" true
    (try
       ignore (Runtime.Helpers.sizeof "nope");
       false
     with K.Panic.Kernel_bug _ -> true)

let test_runtime_port_helpers_do_io () =
  K.Boot.boot ();
  let last = ref (-1) in
  let r =
    K.Io.register_ports ~base:0x100 ~len:4
      ~read:(fun _ _ -> 0x5a)
      ~write:(fun _ _ v -> last := v)
  in
  Runtime.Helpers.outb 0x100 0x77;
  check "write reached the device" 0x77 !last;
  check "read returns device data" 0x5a (Runtime.Helpers.inb 0x100);
  K.Io.release r

(* Allocation regression: a register read passes the access and its
   address through the Jeannie bridge instead of capturing them in a
   thunk, so it allocates nothing. *)
let test_runtime_readl_alloc () =
  K.Boot.boot ();
  let r =
    K.Io.register_mmio ~base:0xfebc_0000 ~len:0x20
      ~read:(fun off _ -> off)
      ~write:(fun _ _ _ -> ())
  in
  check "read reaches the register" 8 (Runtime.Helpers.readl 0xfebc_0008);
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (Runtime.Helpers.readl 0xfebc_0008)
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "readl: %.0f words in 10,000 reads = 0" words) true
    (words = 0.);
  K.Io.release r

(* --- Params (the e1000_param.c rewrite of section 5.1) --- *)

let test_params_range () =
  K.Boot.boot ();
  let c = new Params.range_checker ~name:"TxDescriptors" ~default:256 ~min:80 ~max:4096 in
  let ok = c#check 512 in
  check "legal kept" 512 ok.Params.value;
  check_bool "not adjusted" false ok.Params.adjusted;
  let bad = c#check 7 in
  check "illegal replaced by default" 256 bad.Params.value;
  check_bool "adjusted" true bad.Params.adjusted;
  check_bool "warning logged" true (K.Klog.count K.Klog.Warning >= 1)

let test_params_set_membership () =
  K.Boot.boot ();
  let c =
    new Params.set_checker ~name:"ITR" ~default:3 ~allowed:[ 0; 1; 3; 8000 ]
  in
  check "member kept" 8000 (c#check 8000).Params.value;
  check "non-member replaced" 3 (c#check 17).Params.value

let test_params_polymorphic_check_all () =
  K.Boot.boot ();
  let results =
    Params.check_all
      [
        (new Params.flag_checker ~name:"flag" ~default:0, 1);
        (new Params.range_checker ~name:"r" ~default:5 ~min:0 ~max:10, 99);
        (new Params.set_checker ~name:"s" ~default:2 ~allowed:[ 2; 4 ], 4);
      ]
  in
  Alcotest.(check (list string))
    "names in order" [ "flag"; "r"; "s" ]
    (List.map fst results);
  Alcotest.(check (list bool))
    "adjustment flags" [ false; true; false ]
    (List.map (fun (_, o) -> o.Params.adjusted) results)

(* --- Nuclear deferral --- *)

let test_nuclear_defer_and_flush () =
  K.Boot.boot ();
  let ran = ref 0 in
  ignore
    (K.Sched.spawn (fun () ->
         Runtime.Nuclear.defer (fun () ->
             K.Sched.sleep_ns 1_000;
             incr ran);
         Runtime.Nuclear.defer (fun () -> incr ran);
         Runtime.Nuclear.flush ();
         check "both ran before flush returned" 2 !ran));
  K.Sched.run ();
  check "deferred count" 2 (Runtime.Nuclear.deferred_count ())

(* --- e1000 uses the checkers at probe time --- *)

let test_e1000_validates_module_params () =
  Decaf_experiments.Scenario.boot ();
  Decaf_drivers.E1000_drv.reset_module_params ();
  Decaf_drivers.E1000_drv.set_module_params ~tx_descriptors:7
    ~interrupt_throttle:12345 ();
  let link = Decaf_hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (Decaf_drivers.E1000_drv.setup_device ~slot:"00:05.0"
       ~mmio_base:0xf000_0000 ~irq:11 ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());
  ignore
    (K.Sched.spawn (fun () ->
         match
           Decaf_drivers.Driver_core.insmod "e1000"
             ~mode:Decaf_drivers.Driver_env.Decaf
         with
         | Ok () -> Decaf_drivers.Driver_core.rmmod "e1000"
         | Error rc -> Alcotest.failf "insmod: %d" rc));
  K.Sched.run ();
  let checked = !Decaf_drivers.E1000_drv.checked_params in
  let outcome name = List.assoc name checked in
  check "bad TxDescriptors clamped to default" 256 (outcome "TxDescriptors").Params.value;
  check_bool "adjusted" true (outcome "TxDescriptors").Params.adjusted;
  check "bad throttle rate clamped" 3 (outcome "InterruptThrottleRate").Params.value;
  check_bool "legal flag kept" false (outcome "SmartPowerDownEnable").Params.adjusted;
  Decaf_drivers.E1000_drv.reset_module_params ()

(* --- Errors.with_retry --- *)

let in_thread f =
  let r = ref None in
  ignore (K.Sched.spawn (fun () -> r := Some (f ())));
  K.Sched.run ();
  match !r with Some v -> v | None -> Alcotest.fail "thread did not complete"

let test_with_retry_eventually_succeeds () =
  K.Boot.boot ();
  let calls = ref 0 in
  let flaky calls factor =
    incr calls;
    if !calls < 3 then Errors.throw ~driver:"t" ~errno:Errors.eio "flaky";
    !calls * factor
  in
  let result =
    in_thread (fun () ->
        Errors.with_retry ~attempts:3 ~backoff_ns:1_000 flaky calls 10)
  in
  check "third try succeeded" 30 result;
  check "three calls" 3 !calls

let test_with_retry_exhausts () =
  K.Boot.boot ();
  let calls = ref 0 in
  let raised =
    in_thread (fun () ->
        try
          ignore
            (Errors.with_retry ~attempts:3 ~backoff_ns:1_000
               (fun calls context ->
                 incr calls;
                 Errors.throw ~driver:"t" ~errno:Errors.eio context)
               calls "dead");
          false
        with Errors.Hw_error { errno; _ } -> errno = Errors.eio)
  in
  check "stopped after three attempts" 3 !calls;
  check_bool "original error surfaced" true raised

let test_with_retry_rejects_bad_args () =
  check_bool "attempts must be positive" true
    (try
       ignore
         (Errors.with_retry ~attempts:0 ~backoff_ns:1 (fun () () -> ()) () ());
       false
     with Invalid_argument _ -> true)

(* --- Supervisor --- *)

let test_supervisor_passthrough () =
  K.Boot.boot ();
  let sup = Supervisor.create ~name:"t" () in
  let v =
    in_thread (fun () ->
        Supervisor.run sup ~on_restart:(fun () -> ()) (fun () -> 42))
  in
  check_bool "value passed through" true (v = Some 42);
  check "nothing detected" 0 (Supervisor.stats sup).Supervisor.detected;
  check_bool "still running" true (Supervisor.state sup = Supervisor.Running)

let test_supervisor_recovers () =
  K.Boot.boot ();
  let sup = Supervisor.create ~name:"t" ~restart_delay_ns:1_000 () in
  let restarted = ref 0 in
  let tries = ref 0 in
  let v =
    in_thread (fun () ->
        Supervisor.run sup
          ~on_restart:(fun () -> incr restarted)
          (fun () ->
            incr tries;
            if !tries < 3 then failwith "crash";
            7))
  in
  check_bool "recovered value" true (v = Some 7);
  check "restart hook ran twice" 2 !restarted;
  let st = Supervisor.stats sup in
  check "detected" 2 st.Supervisor.detected;
  check "recovered" 2 st.Supervisor.recovered;
  check "degraded" 0 st.Supervisor.degraded;
  check "restarts" 2 st.Supervisor.restarts

let test_supervisor_budget_exhausted () =
  K.Boot.boot ();
  let sup =
    Supervisor.create ~name:"t" ~restart_budget:2 ~restart_delay_ns:1_000 ()
  in
  let v =
    in_thread (fun () ->
        Supervisor.run sup ~on_restart:(fun () -> ()) (fun () -> failwith "dead"))
  in
  check_bool "no value: driver disabled" true (v = None);
  check_bool "disabled, kernel alive" true
    (Supervisor.state sup = Supervisor.Disabled);
  let st = Supervisor.stats sup in
  check "every attempt detected" 3 st.Supervisor.detected;
  check "all episodes degraded" 3 st.Supervisor.degraded;
  check "accounting invariant" st.Supervisor.detected
    (st.Supervisor.recovered + st.Supervisor.degraded);
  (* a disabled supervisor refuses to run the driver again *)
  let again = in_thread (fun () -> Supervisor.run sup (fun () -> 1)) in
  check_bool "refuses once disabled" true (again = None)

let test_supervisor_never_swallows_kernel_bug () =
  K.Boot.boot ();
  let sup = Supervisor.create ~name:"t" ~restart_delay_ns:1_000 () in
  let saw =
    in_thread (fun () ->
        try
          ignore
            (Supervisor.run sup
               ~on_restart:(fun () -> ())
               (fun () -> K.Panic.bug "fatal"));
          false
        with K.Panic.Kernel_bug _ -> true)
  in
  check_bool "kernel bug propagates untouched" true saw;
  check "not booked as a driver fault" 0
    (Supervisor.stats sup).Supervisor.detected

let test_supervisor_restart_resets_runtime () =
  K.Boot.boot ();
  Runtime.start ();
  let before = Runtime.restarts () in
  let sup = Supervisor.create ~name:"t" ~restart_delay_ns:1_000 () in
  let tries = ref 0 in
  ignore
    (in_thread (fun () ->
         Supervisor.run sup (fun () ->
             incr tries;
             if !tries < 2 then failwith "crash")));
  check "default restart hook restarts the runtime" (before + 1)
    (Runtime.restarts ());
  check_bool "runtime needs a fresh start" false (Runtime.started ())

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_runtime"
    [
      ( "errors",
        [
          tc "check/to_errno" test_errors_check_and_to_errno;
          tc "protect cleanup" test_errors_protect_runs_cleanup_only_on_failure;
          tc "nested unwind order" test_errors_protect_nests_in_order;
        ] );
      ( "jeannie",
        [
          tc "direct call" test_jeannie_direct_switches_domain;
          tc "via xpc" test_jeannie_via_xpc_counts;
        ] );
      ( "runtime",
        [
          tc "start once" test_runtime_start_once;
          tc "sizeof registry" test_runtime_sizeof_registry;
          tc "port helpers" test_runtime_port_helpers_do_io;
          tc "readl allocation" test_runtime_readl_alloc;
        ] );
      ( "params",
        [
          tc "range checker" test_params_range;
          tc "set checker" test_params_set_membership;
          tc "check_all polymorphism" test_params_polymorphic_check_all;
          tc "e1000 probe validates" test_e1000_validates_module_params;
        ] );
      ("nuclear", [ tc "defer and flush" test_nuclear_defer_and_flush ]);
      ( "with_retry",
        [
          tc "eventually succeeds" test_with_retry_eventually_succeeds;
          tc "exhausts and rethrows" test_with_retry_exhausts;
          tc "rejects bad arguments" test_with_retry_rejects_bad_args;
        ] );
      ( "supervisor",
        [
          tc "passthrough" test_supervisor_passthrough;
          tc "recovers after restarts" test_supervisor_recovers;
          tc "budget exhausted degrades" test_supervisor_budget_exhausted;
          tc "kernel bug propagates" test_supervisor_never_swallows_kernel_bug;
          tc "restart resets the runtime" test_supervisor_restart_resets_runtime;
        ] );
    ]
