(* Fault-injection campaign: drive every decaf driver through its
   workload while Faultinject corrupts device reads, wedges handshakes,
   fails allocations and times out XPC crossings, with the recovery
   supervisor in the loop.  The figure of merit is the paper's
   reliability claim: a misbehaving decaf driver may be restarted or
   disabled, but it never takes the kernel down. *)

module K = Decaf_kernel
module FI = K.Faultinject
module Supervisor = Decaf_runtime.Supervisor
open Decaf_drivers
open Decaf_workloads

type trial = {
  driver : string;
  fault : string;
  expected : string;
  outcome : string;
  injected : int;
  detected : int;
  recovered : int;
  degraded : int;
  restarts : int;
  kernel_bugs : int;
}

type report = {
  seed : int;
  trials : trial list;
  total_injected : int;
  total_detected : int;
  total_recovered : int;
  total_degraded : int;
  total_restarts : int;
  total_kernel_bugs : int;
}

(* --- trial harness --- *)

type case = {
  c_driver : string;
  c_fault : string;
  c_expected : string;
  c_specs : FI.spec list;
  c_body : Trial.body;
}

(* Every trial loads, supervises and unloads its driver through the
   registry (see {!Trial}): the supervisor [Driver_core.run] attached
   owns the restart budget, and the campaign only reads the stats back
   out. *)
let run_case ~seed c =
  let r = Trial.run ~seed ~faults:c.c_specs c.c_driver c.c_body in
  let injected = FI.injected_count () in
  let sup = r.Trial.supervisor in
  let st = Supervisor.stats sup in
  let outcome =
    if r.Trial.kernel_bugs > 0 then "KERNEL-BUG"
    else if Supervisor.state sup = Supervisor.Disabled then "degraded"
    else if st.Supervisor.detected > 0 then "recovered"
    else if injected > 0 then "tolerated"
    else "clean"
  in
  (* Faults the stack absorbed without the supervisor's help (internal
     retries, idempotent XPC replays, spurious-interrupt filtering)
     still count as detected-and-recovered episodes. *)
  if outcome = "tolerated" && r.Trial.finished then
    Supervisor.note_tolerated sup;
  let st = Supervisor.stats sup in
  {
    driver = c.c_driver;
    fault = c.c_fault;
    expected = c.c_expected;
    outcome;
    injected;
    detected = st.Supervisor.detected;
    recovered = st.Supervisor.recovered;
    degraded = st.Supervisor.degraded;
    restarts = st.Supervisor.restarts;
    kernel_bugs = r.Trial.kernel_bugs;
  }

(* --- the trial matrix ---

   Each trial runs its driver's traffic slice in decaf mode, as in
   Table 3; the hotplug and power-management windows wrap an action in
   it. *)

(* Surprise-remove the NIC mid-workload, then replug it.  The registry's
   hotplug handler unbinds on removal and re-probes on re-add — both
   inside the same supervised episode, so a fault in the re-probe is one
   more recoverable crossing. *)
let plain = Trial.After ignore
let replug = Trial.Between (fun () -> Rig.replug_e1000 ())

let reconnect =
  Trial.Between
    (fun () ->
      Driver_core.eject "psmouse";
      Rig.ok "psmouse-reinsmod"
        (Driver_core.insmod "psmouse" ~mode:Driver_env.Decaf))

let pm_cycle = Trial.Suspended ignore
let sp ?addr site kind trigger = FI.spec ?addr ~site ~kind ~trigger ()

let spurious driver =
  {
    c_driver = driver;
    c_fault = Printf.sprintf "spurious interrupts on line %d" (Rig.irq driver);
    c_expected = "tolerated";
    c_specs = [ sp "irq.spurious" FI.Spurious_irq (FI.Span (1, 3)) ];
    c_body = plain;
  }

let cases () =
  let rtl_cmd = Rig.base "8139too" + 0x37 in
  let eerd = Rig.base "e1000" + 0x14 and mdic = Rig.base "e1000" + 0x20 in
  let usbcmd = Rig.base "uhci-hcd" and portsc1 = Rig.base "uhci-hcd" + 0x10 in
  [
    (* 8139too *)
    { c_driver = "8139too"; c_fault = "none (baseline)"; c_expected = "clean";
      c_specs = []; c_body = plain };
    { c_driver = "8139too"; c_fault = "reset stuck busy, 100 reads";
      c_expected = "recovered"; c_body = plain;
      c_specs =
        [ sp ~addr:rtl_cmd "io.port" FI.Stuck_ones (FI.Span (1, 100)) ] };
    { c_driver = "8139too"; c_fault = "reset wedged forever";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp ~addr:rtl_cmd "io.port" FI.Stuck_ones FI.Always ] };
    { c_driver = "8139too"; c_fault = "probe upcall XPC timeout";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "xpc.rtl8139_probe" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    spurious "8139too";
    { c_driver = "8139too"; c_fault = "lossy link, p=0.5 frame drop";
      c_expected = "tolerated"; c_body = plain;
      c_specs = [ sp "hw.link" FI.Link_flap (FI.Prob 0.5) ] };
    (* e1000 *)
    { c_driver = "e1000"; c_fault = "EERD done-bit miss x2";
      c_expected = "tolerated"; c_body = plain;
      c_specs = [ sp ~addr:eerd "io.mmio" FI.Stuck_zero (FI.Span (1, 2)) ] };
    { c_driver = "e1000"; c_fault = "EERD done-bit miss x3";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp ~addr:eerd "io.mmio" FI.Stuck_zero (FI.Span (1, 3)) ] };
    { c_driver = "e1000"; c_fault = "EEPROM word bit flip";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "hw.eeprom" FI.Bad_read (FI.Span (10, 1)) ] };
    { c_driver = "e1000"; c_fault = "autonegotiation stalls once";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "hw.phy.autoneg" FI.Stuck_zero (FI.Span (1, 1)) ] };
    { c_driver = "e1000"; c_fault = "autonegotiation dead";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp "hw.phy.autoneg" FI.Stuck_zero FI.Always ] };
    { c_driver = "e1000"; c_fault = "tx ring allocation fails";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "dma.alloc" FI.Alloc_fail (FI.Span (1, 1)) ] };
    { c_driver = "e1000"; c_fault = "rx ring allocation fails";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "dma.alloc" FI.Alloc_fail (FI.Span (2, 1)) ] };
    { c_driver = "e1000"; c_fault = "MDIC never ready x2";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp ~addr:mdic "io.mmio" FI.Stuck_zero (FI.Span (1, 2)) ] };
    { c_driver = "e1000"; c_fault = "config-space read XPC timeout";
      c_expected = "tolerated"; c_body = plain;
      c_specs = [ sp "xpc.pci_read_config" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    { c_driver = "e1000"; c_fault = "config-space read XPC dead x3";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "xpc.pci_read_config" FI.Xpc_timeout (FI.Span (1, 3)) ] };
    spurious "e1000";
    (* ens1371 *)
    { c_driver = "ens1371"; c_fault = "snd_card_register XPC timeout";
      c_expected = "recovered"; c_body = plain;
      c_specs =
        [ sp "xpc.snd_card_register" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    { c_driver = "ens1371"; c_fault = "probe upcall dead";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp "xpc.ens1371_probe" FI.Xpc_timeout FI.Always ] };
    spurious "ens1371";
    (* uhci-hcd *)
    { c_driver = "uhci-hcd"; c_fault = "HCRESET stuck once";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp ~addr:usbcmd "io.port" FI.Stuck_ones (FI.Span (1, 1)) ] };
    { c_driver = "uhci-hcd"; c_fault = "HCRESET wedged forever";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp ~addr:usbcmd "io.port" FI.Stuck_ones FI.Always ] };
    { c_driver = "uhci-hcd"; c_fault = "port never enables x2";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp ~addr:portsc1 "io.port" FI.Stuck_zero (FI.Span (1, 2)) ] };
    { c_driver = "uhci-hcd"; c_fault = "get-config-descriptor XPC timeout";
      c_expected = "tolerated"; c_body = plain;
      c_specs =
        [ sp "xpc.usb_get_config_descriptor" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    { c_driver = "uhci-hcd"; c_fault = "register_hcd XPC dead";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp "xpc.usb_register_hcd" FI.Xpc_timeout FI.Always ] };
    spurious "uhci-hcd";
    (* psmouse: i8042 data port 0x60, status port 0x64 *)
    { c_driver = "psmouse"; c_fault = "ACK byte bit flip";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp ~addr:0x60 "io.port" FI.Bad_read (FI.Span (1, 1)) ] };
    { c_driver = "psmouse"; c_fault = "controller dead (status stuck 0)";
      c_expected = "degraded"; c_body = plain;
      c_specs = [ sp ~addr:0x64 "io.port" FI.Stuck_zero FI.Always ] };
    { c_driver = "psmouse"; c_fault = "connect upcall XPC timeout";
      c_expected = "recovered"; c_body = plain;
      c_specs = [ sp "xpc.psmouse_connect" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    spurious "psmouse";
    (* hotplug and suspend/resume windows (appended: earlier trials keep
       their per-case seeds) *)
    { c_driver = "e1000"; c_fault = "surprise removal + replug";
      c_expected = "clean"; c_specs = []; c_body = replug };
    { c_driver = "e1000"; c_fault = "replug re-probe XPC timeout";
      c_expected = "recovered"; c_body = replug;
      c_specs = [ sp "xpc.e1000_probe" FI.Xpc_timeout (FI.Span (2, 1)) ] };
    { c_driver = "e1000"; c_fault = "suspend/resume mid-workload";
      c_expected = "clean"; c_specs = []; c_body = pm_cycle };
    { c_driver = "e1000"; c_fault = "suspend upcall XPC timeout";
      c_expected = "recovered"; c_body = pm_cycle;
      c_specs = [ sp "xpc.e1000_suspend" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    { c_driver = "e1000"; c_fault = "resume upcall dead";
      c_expected = "degraded"; c_body = pm_cycle;
      c_specs = [ sp "xpc.e1000_resume" FI.Xpc_timeout FI.Always ] };
    { c_driver = "ens1371"; c_fault = "suspend/resume mid-playback";
      c_expected = "clean"; c_specs = []; c_body = pm_cycle };
    { c_driver = "uhci-hcd"; c_fault = "suspend upcall XPC timeout";
      c_expected = "recovered"; c_body = pm_cycle;
      c_specs = [ sp "xpc.uhci_suspend" FI.Xpc_timeout (FI.Span (1, 1)) ] };
    { c_driver = "psmouse"; c_fault = "eject + reconnect";
      c_expected = "clean"; c_specs = []; c_body = reconnect };
    { c_driver = "psmouse"; c_fault = "suspend upcall XPC timeout";
      c_expected = "recovered"; c_body = pm_cycle;
      c_specs = [ sp "xpc.psmouse_suspend" FI.Xpc_timeout (FI.Span (1, 1)) ] };
  ]

let drivers_covered trials =
  List.sort_uniq compare (List.map (fun t -> t.driver) trials)

let run ?(seed = 0xdecaf) () =
  let trials =
    List.mapi (fun i c -> run_case ~seed:(seed + i) c) (cases ())
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 trials in
  {
    seed;
    trials;
    total_injected = sum (fun t -> t.injected);
    total_detected = sum (fun t -> t.detected);
    total_recovered = sum (fun t -> t.recovered);
    total_degraded = sum (fun t -> t.degraded);
    total_restarts = sum (fun t -> t.restarts);
    total_kernel_bugs = sum (fun t -> t.kernel_bugs);
  }

(* Acceptance check for the campaign, also used by the test suite. *)
let check r =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.total_kernel_bugs <> 0 then
    fail "%d fault(s) reached Panic.bug / escaped the supervisor"
      r.total_kernel_bugs
  else if r.total_injected < 100 then
    fail "only %d faults injected (want >= 100)" r.total_injected
  else if r.total_recovered + r.total_degraded <> r.total_detected then
    fail "accounting broken: recovered %d + degraded %d <> detected %d"
      r.total_recovered r.total_degraded r.total_detected
  else if r.total_recovered = 0 then fail "no fault was ever recovered"
  else if r.total_degraded = 0 then
    fail "no fault ever exhausted the restart budget"
  else if
    drivers_covered r.trials
    <> [ "8139too"; "e1000"; "ens1371"; "psmouse"; "uhci-hcd" ]
  then
    fail "campaign did not cover all five drivers: %s"
      (String.concat ", " (drivers_covered r.trials))
  else
    match
      List.find_opt (fun t -> t.outcome <> t.expected) r.trials
    with
    | Some t ->
        fail "%s / %s: expected %s, got %s" t.driver t.fault t.expected
          t.outcome
    | None -> Ok ()

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Fault-injection campaign (seed 0x%x): %d trials on 5 drivers\n" r.seed
    (List.length r.trials);
  add "%-9s %-35s %5s %4s %4s %4s %4s  %-10s\n" "Driver" "Fault" "Inj" "Det"
    "Rec" "Deg" "Rst" "Outcome";
  List.iter
    (fun t ->
      add "%-9s %-35s %5d %4d %4d %4d %4d  %-10s%s\n" t.driver t.fault
        t.injected t.detected t.recovered t.degraded t.restarts t.outcome
        (if t.outcome = t.expected then "" else " (expected " ^ t.expected ^ ")"))
    r.trials;
  add "Totals: injected=%d detected=%d recovered=%d degraded=%d restarts=%d kernel-bugs=%d\n"
    r.total_injected r.total_detected r.total_recovered r.total_degraded
    r.total_restarts r.total_kernel_bugs;
  (match check r with
  | Ok () ->
      add "Acceptance: OK (>=100 faults, no kernel panics, recovered+degraded=detected)\n"
  | Error m -> add "Acceptance: FAILED — %s\n" m);
  Buffer.contents buf
