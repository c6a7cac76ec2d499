(* The unified driver model: lifecycle FSM, hotplug routing, PM hooks
   and module-parameter hygiene, all through the Driver_core registry. *)

open Decaf_drivers
module K = Decaf_kernel
module Hw = Decaf_hw
module FI = K.Faultinject
module Supervisor = Decaf_runtime.Supervisor
module Scenario = Decaf_experiments.Scenario

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let state_name name = Driver_core.lifecycle_name (Driver_core.state name)

let setup_e1000 () =
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore
    (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
       ~mac:Decaf_workloads.Rig.mac ~link ());
  link

let insmod_ok name =
  match Driver_core.insmod name ~mode:Driver_env.Decaf with
  | Ok () -> ()
  | Error rc -> Alcotest.failf "%s insmod failed: %d" name rc

(* --- lifecycle FSM --- *)

let registry_booted () =
  Scenario.boot ();
  Alcotest.(check (list string))
    "all five drivers registered"
    [ "8139too"; "e1000"; "ens1371"; "uhci-hcd"; "psmouse" ]
    (Driver_core.registered ());
  check_bool "unknown names rejected" true
    (match Driver_core.state "floppy" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* e1000 whose probe can be made to fault, as a decaf driver that keeps
   crashing does: the supervisor retries it until the restart budget runs
   out and leaves the binding Disabled. *)
let probe_faults = ref false

let faulting_e1000 =
  let (Driver_core.Pack (module D)) = E1000_drv.packed in
  Driver_core.Pack
    (module struct
      include D

      let probe env ~dev =
        if !probe_faults then failwith "probe fault" else D.probe env ~dev
    end)

(* Every public op from every resting state: the resulting state,
   "illegal" (Illegal_transition, the state untouched) or "no-op" (the
   state and the binding's supervisor untouched; every op that binds
   attaches a fresh one). *)
let lifecycle_ops =
  let mode = Driver_env.Decaf in
  [
    ("insmod", fun () -> ignore (Driver_core.insmod "e1000" ~mode));
    ("rmmod", fun () -> Driver_core.rmmod "e1000");
    ("suspend", fun () -> ignore (Driver_core.suspend "e1000"));
    ("resume", fun () -> ignore (Driver_core.resume "e1000"));
    ("eject", fun () -> Driver_core.eject "e1000");
    ("run", fun () -> ignore (Driver_core.run "e1000" ~mode ignore));
  ]

let lifecycle_table =
  (* from         insmod     rmmod      suspend      resume     eject      run *)
  [
    ("unbound", [ "running"; "illegal"; "illegal"; "illegal"; "no-op"; "removed" ]);
    ("running", [ "illegal"; "removed"; "suspended"; "illegal"; "removed"; "illegal" ]);
    ("suspended", [ "illegal"; "removed"; "illegal"; "running"; "removed"; "illegal" ]);
    ("disabled", [ "illegal"; "removed"; "illegal"; "illegal"; "no-op"; "illegal" ]);
    ("removed", [ "running"; "illegal"; "illegal"; "illegal"; "no-op"; "removed" ]);
  ]

let reach = function
  | "unbound" -> ()
  | "running" -> insmod_ok "e1000"
  | "suspended" ->
      insmod_ok "e1000";
      ignore (Driver_core.suspend "e1000")
  | "disabled" ->
      probe_faults := true;
      ignore (Driver_core.insmod "e1000" ~mode:Driver_env.Decaf);
      probe_faults := false
  | "removed" ->
      insmod_ok "e1000";
      Driver_core.rmmod "e1000"
  | s -> Alcotest.failf "no way to reach %s" s

let outcome from_ op =
  Scenario.boot ();
  Driver_core.register faulting_e1000;
  ignore (setup_e1000 ());
  Scenario.in_thread (fun () ->
      reach from_;
      Alcotest.(check string) ("reached " ^ from_) from_ (state_name "e1000");
      let sup = Driver_core.supervisor "e1000" in
      match op () with
      | () ->
          let s = state_name "e1000" in
          let same_sup =
            match (sup, Driver_core.supervisor "e1000") with
            | None, None -> true
            | Some a, Some b -> a == b
            | _ -> false
          in
          if s = from_ && same_sup then "no-op" else s
      | exception Driver_core.Illegal_transition _ ->
          let s = state_name "e1000" in
          if s = from_ then "illegal" else "illegal, left " ^ s)

let illegal_transitions () =
  let measured =
    List.map
      (fun (from_, _) ->
        (from_, List.map (fun (_, op) -> outcome from_ op) lifecycle_ops))
      lifecycle_table
  in
  Alcotest.(check (list (pair string (list string))))
    "insmod, rmmod, suspend, resume, eject, run from each state"
    lifecycle_table measured

(* --- hotplug --- *)

let removal_drains_in_flight () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  let crossing_done = ref false in
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      (* a slow decaf-driver crossing from another thread ... *)
      ignore
        (K.Sched.spawn ~name:"slow-crossing" (fun () ->
             Decaf_xpc.Channel.call ~target:Decaf_xpc.Domain.Decaf_driver
               ~payload_bytes:8 ~reply_bytes:0 (fun () ->
                 K.Sched.sleep_ns 1_000_000;
                 crossing_done := true)));
      K.Sched.sleep_ns 100_000;
      (* ... must complete before a surprise removal unbinds the driver *)
      let dev =
        List.find
          (fun d -> K.Pci.slot d = "00:05.0")
          (K.Pci.devices ())
      in
      K.Pci.remove_device dev;
      check_bool "in-flight crossing drained before unbind" true
        !crossing_done;
      Alcotest.(check string) "driver unbound" "removed" (state_name "e1000"))

let replug_rebinds () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      let dev =
        List.find (fun d -> K.Pci.slot d = "00:05.0") (K.Pci.devices ())
      in
      K.Pci.remove_device dev;
      Alcotest.(check string) "removed" "removed" (state_name "e1000");
      K.Pci.add_device
        (K.Pci.make_dev ~slot:"00:05.0" ~vendor:0x8086 ~device:0x100e
           ~irq_line:11
           ~bars:
             [ { K.Pci.kind = K.Pci.Mmio_bar; base = 0xf000_0000; len = 0x20000 } ]
           ());
      Alcotest.(check string) "re-probed on replug" "running"
        (state_name "e1000");
      Driver_core.rmmod "e1000")

(* A surprise removal while the probe sleeps in 8139too's 10 ms chip
   reset: the registry has no instance to eject yet and the PCI core no
   driver to unbind, so the binding is ejected once its probe returns.
   It ends Removed with nothing left behind, and the device comes
   back. *)
let removal_during_probe () =
  Scenario.boot ();
  ignore (Decaf_workloads.Rig.plug "8139too");
  let slot = "00:04.0" in
  let handles () =
    Decaf_xpc.Objtracker.handle_count
      (Decaf_runtime.Runtime.kernel_tracker ())
  in
  Scenario.in_thread (fun () ->
      let at_removal = ref "" in
      ignore
        (K.Sched.spawn ~name:"hotplug" (fun () ->
             K.Sched.sleep_ns 5_000_000;
             at_removal := state_name "8139too";
             K.Pci.remove_device
               (List.find (fun d -> K.Pci.slot d = slot) (K.Pci.devices ()))));
      ignore (Driver_core.insmod "8139too" ~mode:Driver_env.Decaf);
      Alcotest.(check string) "the removal raced the probe" "probed"
        !at_removal;
      (match Driver_core.state "8139too" with
      | Running | Suspended -> Driver_core.rmmod "8139too"
      | _ -> ());
      Alcotest.(check string) "binding removed" "removed"
        (state_name "8139too");
      check "no kernel tracker handle" 0 (handles ());
      check_bool "eth0 unregistered" true (K.Netcore.lookup "eth0" = None);
      (* the binding still wants its build: the device's return re-probes
         it, and after an unbind it loads again *)
      K.Pci.add_device
        (K.Pci.make_dev ~slot ~vendor:Rtl8139_drv.vendor_id
           ~device:Rtl8139_drv.device_id ~irq_line:10
           ~bars:[ { K.Pci.kind = K.Pci.Port_bar; base = 0xc000; len = 0x100 } ]
           ());
      Alcotest.(check string) "re-probed on replug" "running"
        (state_name "8139too");
      Driver_core.rmmod "8139too";
      insmod_ok "8139too";
      Driver_core.rmmod "8139too");
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error what -> Alcotest.failf "not quiescent: %s" what

(* --- suspend/resume --- *)

let rmmod_while_suspended () =
  Scenario.boot ();
  let link = setup_e1000 () in
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      let t = Option.get (E1000_drv.active ()) in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
           ~msg_bytes:1500);
      (match Driver_core.suspend "e1000" with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "suspend failed: %d" rc);
      Driver_core.rmmod "e1000";
      Alcotest.(check string) "unloaded from suspend" "removed"
        (state_name "e1000");
      check_bool "instance gone" true (E1000_drv.active () = None))

let pm_cycle_moves_data_after_resume () =
  Scenario.boot ();
  let link = setup_e1000 () in
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      let t = Option.get (E1000_drv.active ()) in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let r1 =
        Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
          ~msg_bytes:1500
      in
      (match Driver_core.suspend "e1000" with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "suspend failed: %d" rc);
      (match Driver_core.resume "e1000" with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "resume failed: %d" rc);
      let r2 =
        Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
          ~msg_bytes:1500
      in
      check_bool "data still moves after resume" true
        (r1.Decaf_workloads.Netperf.packets > 0
        && r2.Decaf_workloads.Netperf.packets > 0);
      Driver_core.rmmod "e1000")

let suspend_fault_recovers_balanced () =
  Scenario.boot ();
  let link = setup_e1000 () in
  Scenario.in_thread (fun () ->
      insmod_ok "e1000";
      let t = Option.get (E1000_drv.active ()) in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      FI.arm ~seed:0xdecaf
        [
          FI.spec ~site:"xpc.e1000_suspend" ~kind:FI.Xpc_timeout
            ~trigger:(FI.Span (1, 1)) ();
        ];
      (* first suspend crossing faults; the registry's supervisor
         restarts the decaf driver and retries the suspend *)
      (match Driver_core.suspend "e1000" with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "supervised suspend failed: %d" rc);
      FI.disarm ();
      Alcotest.(check string) "suspended after recovery" "suspended"
        (state_name "e1000");
      let sup = Option.get (Driver_core.supervisor "e1000") in
      let st = Supervisor.stats sup in
      check "detected" 1 st.Supervisor.detected;
      check "recovered" 1 st.Supervisor.recovered;
      check "degraded" 0 st.Supervisor.degraded;
      check "balanced accounting" st.Supervisor.detected
        (st.Supervisor.recovered + st.Supervisor.degraded);
      (* resume still works after the supervisor restart *)
      (match Driver_core.resume "e1000" with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "resume after restart failed: %d" rc);
      let r =
        Decaf_workloads.Netperf.send ~netdev:nd ~link ~duration_ns:1_000_000
          ~msg_bytes:1500
      in
      check_bool "data moves after restart + resume" true
        (r.Decaf_workloads.Netperf.packets > 0);
      ignore t;
      Driver_core.rmmod "e1000")

(* --- module parameters are insmod arguments --- *)

let params_reset_between_probes () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  let tx_descriptors () =
    match List.assoc_opt "TxDescriptors" !E1000_drv.checked_params with
    | Some o -> o.Decaf_runtime.Params.value
    | None -> Alcotest.fail "TxDescriptors not validated"
  in
  Scenario.in_thread (fun () ->
      E1000_drv.set_module_params ~tx_descriptors:1024 ();
      insmod_ok "e1000";
      check "first probe uses the given value" 1024 (tx_descriptors ());
      Driver_core.rmmod "e1000";
      (* back-to-back probe with no parameters: rmmod must have reset
         them to the defaults, not leaked 1024 into the next insmod *)
      insmod_ok "e1000";
      check "second probe sees the default" 256 (tx_descriptors ());
      Driver_core.rmmod "e1000")

(* --- a reboot forgets every binding --- *)

(* Booting over a bound driver, with no rmmod, must leave the driver's own
   bookkeeping as fresh as the registry's: no adapter from the old machine
   answers [active] or [netdev_at], and the next bind claims [active]. *)
let reboot_forgets_bindings () =
  let slot = "00:05.0" in
  Scenario.boot ();
  ignore (setup_e1000 ());
  Scenario.in_thread (fun () -> insmod_ok "e1000");
  let old = E1000_drv.active () in
  check_bool "first bind is active" true (Option.is_some old);
  Scenario.boot ();
  check_bool "no active adapter after reboot" true
    (Option.is_none (E1000_drv.active ()));
  check_bool "no netdev at the slot after reboot" true
    (Option.is_none (E1000_drv.netdev_at ~slot));
  ignore (setup_e1000 ());
  Scenario.in_thread (fun () -> insmod_ok "e1000");
  match (E1000_drv.active (), E1000_drv.netdev_at ~slot, old) with
  | Some t, Some nd, Some o ->
      check_bool "active is the new binding" true
        (E1000_drv.netdev t == nd && t != o)
  | _ -> Alcotest.fail "the new bind is not active"

(* --- a native build crosses nothing --- *)

(* The native build is the original kernel driver: bound through the
   registry, brought up and sending for 20 ms of netperf, then unbound,
   it runs no Guard check, holds no kernel-tracker handle, looks nothing
   up in a tracker shard and books no XPC time. *)
let native_xpc_free driver () =
  Scenario.boot ();
  let dev = Decaf_workloads.Rig.plug driver in
  let untouched when_ =
    check ("XPC ns " ^ when_) 0 (Decaf_xpc.Dispatch.overhead_ns ());
    check ("guard checks " ^ when_) 0
      Decaf_xpc.Boundary.totals.Decaf_xpc.Boundary.checks;
    check ("tracker shard lookups " ^ when_) 0
      (Array.fold_left
         (fun n s -> n + s.Decaf_xpc.Objtracker.lookups)
         0
         (Decaf_xpc.Objtracker.global_shard_stats ()))
  in
  Scenario.in_thread (fun () ->
      (match Driver_core.insmod driver ~mode:Driver_env.Native with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "%s insmod failed: %d" driver rc);
      Decaf_workloads.Rig.up dev;
      ignore (Decaf_workloads.Rig.netperf dev ~duration_ns:20_000_000);
      untouched "after netperf";
      Driver_core.rmmod driver;
      untouched "after rmmod";
      (* counted last: the count takes the shard locks, whose cost lands
         on the XPC account *)
      check "kernel tracker handles" 0
        (Decaf_xpc.Objtracker.handle_count
           (Decaf_runtime.Runtime.kernel_tracker ())))

(* --- allocation per crossing through a bound binding --- *)

(* A driver that keeps the env the registry hands its probe: the
   binding's own env, scoped and metered, as every real driver gets
   it. *)
module Env_probe = struct
  type t = unit

  let name = "envprobe"
  let bus = K.Hotplug.Input
  let ids = []
  let env = ref None

  let probe e ~dev:_ =
    env := Some e;
    Ok ()

  let remove () = ()
  let suspend () = ()
  let resume () = ()
  let owns () _ = false
  let init_latency_ns () = 0
end

(* A 64-byte upcall through the metered env on the workloads' XPC
   configuration, from a kernel thread: words per call beyond the call
   site's own closure (a constant here). The meter, the binding's
   boundary scope, the env and the crossing build nothing; the 2 words
   are the [Some] of the call's name, which Channel.call takes as an
   optional context. 25 when the scope, the env and the crossing each
   built closures or options. *)
let metered_crossing_alloc () =
  Scenario.boot ();
  Driver_core.register (Driver_core.Pack (module Env_probe));
  Decaf_xpc.Batch.set_enabled true;
  Decaf_xpc.Marshal_plan.set_delta_enabled true;
  Decaf_xpc.Dispatch.set_workers 4;
  Decaf_xpc.Guard.set_enabled true;
  Decaf_xpc.Ring.set_enabled true;
  let words = ref nan in
  Scenario.in_thread (fun () ->
      insmod_ok "envprobe";
      let env = Option.get !Env_probe.env in
      let call () =
        Driver_env.upcall env ~name:"envprobe_ioctl" ~bytes:64 ignore
      in
      for _ = 1 to 100 do
        call ()
      done;
      let n = 10_000 in
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        call ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int n;
      Driver_core.rmmod "envprobe");
  check_bool
    (Printf.sprintf "%.1f words per metered upcall <= 2" !words)
    true (!words <= 2.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "drivercore"
    [
      ( "lifecycle",
        [
          tc "registry boots with all five" registry_booted;
          tc "illegal transitions rejected" illegal_transitions;
        ] );
      ( "hotplug",
        [
          tc "removal drains in-flight crossings" removal_drains_in_flight;
          tc "replug re-probes" replug_rebinds;
          tc "removal during probe ejects" removal_during_probe;
        ] );
      ( "pm",
        [
          tc "rmmod while suspended" rmmod_while_suspended;
          tc "suspend/resume keeps the datapath" pm_cycle_moves_data_after_resume;
          tc "suspend fault recovers, stats balanced"
            suspend_fault_recovers_balanced;
        ] );
      ( "params",
        [ tc "module params reset between probes" params_reset_between_probes ] );
      ( "reboot",
        [ tc "reboot forgets bindings" reboot_forgets_bindings ] );
      ( "native",
        [
          tc "e1000 never reaches XPC" (native_xpc_free "e1000");
          tc "8139too never reaches XPC" (native_xpc_free "8139too");
        ] );
      ("allocation", [ tc "metered crossing" metered_crossing_alloc ]);
    ]
