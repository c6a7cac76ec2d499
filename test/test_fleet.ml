(* Multi-instance fleets through the registry: same-driver double-bind
   isolation (FSM, suspend/resume, surprise removal), per-instance
   module parameters, fleet-scale status rendering, and hotplug churn
   under virtual-switch load with ring-conservation and object-tracker
   leak checks. *)

open Decaf_drivers
module K = Decaf_kernel
module Hw = Decaf_hw
module Ring = Decaf_xpc.Ring
module Batch = Decaf_xpc.Batch
module Boundary = Decaf_xpc.Boundary
module Objtracker = Decaf_xpc.Objtracker
module Runtime = Decaf_runtime.Runtime
module Scenario = Decaf_experiments.Scenario
module Vswitch = Decaf_workloads.Vswitch

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let state_name id = Driver_core.lifecycle_name (Driver_core.state id)
let slot_of i = Printf.sprintf "%02x:00.0" i
let mac_of i =
  (* raw 6-byte locally-administered MAC, unique per instance *)
  Printf.sprintf "\x02\x00\x00\x00%c%c"
    (Char.chr ((i lsr 8) land 0xff))
    (Char.chr (i land 0xff))
let mmio_of i = 0xe000_0000 + (i * 0x20000)

let setup_fleet n =
  List.init n (fun i ->
      let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
      ignore
        (E1000_drv.setup_device ~slot:(slot_of i) ~mmio_base:(mmio_of i)
           ~irq:(32 + i) ~mac:(mac_of i) ~link ());
      link)

let bind_ok ?dev name =
  match Driver_core.bind_device name ?dev ~mode:Driver_env.Decaf () with
  | Ok id -> id
  | Error rc -> Alcotest.failf "bind %s failed: %d" name rc

let netdev_of i = Option.get (E1000_drv.netdev_at ~slot:(slot_of i))

let open_ok nd =
  match K.Netcore.open_dev nd with
  | Ok () -> ()
  | Error rc -> Alcotest.failf "open failed: %d" rc

(* Associations and capability handles in both trackers: the kernel
   tracker only issues, so a leaked handle shows up nowhere else. *)
let tracker_entries () =
  Objtracker.entries (Runtime.kernel_tracker ())
  + Objtracker.entries (Runtime.java_tracker ())

let pci_dev_at slot =
  List.find (fun d -> K.Pci.slot d = slot) (K.Pci.devices ())

let replug i =
  K.Pci.add_device
    (K.Pci.make_dev ~slot:(slot_of i) ~vendor:0x8086 ~device:0x100e
       ~irq_line:(32 + i)
       ~bars:[ { K.Pci.kind = K.Pci.Mmio_bar; base = mmio_of i; len = 0x20000 } ]
       ())

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let ring_conserved () =
  let s = Ring.snapshot () in
  check "produced = consumed + rejected + discarded + pending"
    s.Ring.produced
    (s.Ring.consumed + s.Ring.rejected + s.Ring.discarded + Ring.pending ())

(* The XPC configuration every perfbench workload boots into: batch,
   delta, 4 workers, guard and ring. *)
let workloads_config () =
  Batch.set_enabled true;
  Decaf_xpc.Marshal_plan.set_delta_enabled true;
  Decaf_xpc.Dispatch.set_workers 4;
  Decaf_xpc.Guard.set_enabled true;
  Ring.set_enabled true

let median a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  let n = Array.length a in
  (a.((n - 1) / 2) +. a.(n / 2)) /. 2.

let words_of f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* --- double bind: FSM and datapath isolation --- *)

let double_bind_isolated () =
  Scenario.boot ();
  let links = setup_fleet 2 in
  let l0 = List.hd links in
  Scenario.in_thread (fun () ->
      let id0 = bind_ok ~dev:(slot_of 0) "e1000" in
      let id1 = bind_ok ~dev:(slot_of 1) "e1000" in
      check_str "instance 0 keeps the bare name" "e1000" id0;
      check_str "instance 1 gets a fleet id" "e1000#1" id1;
      Alcotest.(check (list string))
        "instances_of lists both bindings" [ "e1000"; "e1000#1" ]
        (Driver_core.instances_of "e1000");
      check_str "i0 running" "running" (state_name id0);
      check_str "i1 running" "running" (state_name id1);
      (match Driver_core.suspend id1 with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "suspend %s failed: %d" id1 rc);
      check_str "i1 suspended" "suspended" (state_name id1);
      check_str "i0 unaffected by sibling suspend" "running" (state_name id0);
      let nd0 = netdev_of 0 in
      open_ok nd0;
      let before = Hw.Link.tx_frames l0 in
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd0 ~link:l0
           ~duration_ns:1_000_000 ~msg_bytes:1500);
      check_bool "i0 datapath live while i1 suspended" true
        (Hw.Link.tx_frames l0 > before);
      (match Driver_core.resume id1 with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "resume %s failed: %d" id1 rc);
      check_str "i1 resumed" "running" (state_name id1);
      Driver_core.rmmod id1;
      check_str "i1 removed" "removed" (state_name id1);
      check_str "i0 survives sibling rmmod" "running" (state_name id0);
      Driver_core.rmmod id0)

(* --- surprise removal of instance k leaves j untouched --- *)

let surprise_removal_isolated () =
  Scenario.boot ();
  let links = setup_fleet 3 in
  Scenario.in_thread (fun () ->
      let base = tracker_entries () in
      let ids = List.init 3 (fun i -> bind_ok ~dev:(slot_of i) "e1000") in
      let id0 = List.nth ids 0
      and id1 = List.nth ids 1
      and id2 = List.nth ids 2 in
      let nd0 = netdev_of 0 in
      open_ok nd0;
      K.Pci.remove_device (pci_dev_at (slot_of 1));
      check_str "ejected instance removed" "removed" (state_name id1);
      check_str "i0 undisturbed" "running" (state_name id0);
      check_str "i2 undisturbed" "running" (state_name id2);
      let l0 = List.hd links in
      let before = Hw.Link.tx_frames l0 in
      ignore
        (Decaf_workloads.Netperf.send ~netdev:nd0 ~link:l0
           ~duration_ns:1_000_000 ~msg_bytes:1500);
      check_bool "i0 datapath live after sibling ejection" true
        (Hw.Link.tx_frames l0 > before);
      (* the freed family slot is pinned to the device: replug re-probes
         back into the same binding id *)
      replug 1;
      check_str "replug rebinds the freed binding" "running" (state_name id1);
      List.iter Driver_core.rmmod [ id1; id2; id0 ];
      check "no leaked tracker entries after fleet teardown" base
        (tracker_entries ());
      ring_conserved ())

(* --- per-instance module-parameter snapshots --- *)

let per_instance_params () =
  Scenario.boot ();
  ignore (setup_fleet 2);
  Scenario.in_thread (fun () ->
      E1000_drv.set_module_params ~tx_descriptors:1024 ~interrupt_throttle:8000
        ();
      let insmod_at i =
        let id = bind_ok ~dev:(slot_of i) "e1000" in
        (id, Option.get (E1000_drv.at ~slot:(slot_of i)))
      in
      let id0, t0 = insmod_at 0 in
      E1000_drv.set_module_params ~tx_descriptors:512 ~interrupt_throttle:3 ();
      let id1, t1 = insmod_at 1 in
      let p0 = E1000_drv.params t0 and p1 = E1000_drv.params t1 in
      check "i0 keeps its TxDescriptors" 1024 p0.E1000_drv.p_tx_descriptors;
      check "i1 snapshot is independent" 512 p1.E1000_drv.p_tx_descriptors;
      check "i0 InterruptThrottleRate" 8000 p0.E1000_drv.p_interrupt_throttle;
      check "i1 InterruptThrottleRate" 3 p1.E1000_drv.p_interrupt_throttle;
      Driver_core.rmmod id1;
      (* i0's snapshot survives the sibling unload *)
      check "i0 params survive sibling rmmod" 1024
        (E1000_drv.params t0).E1000_drv.p_tx_descriptors;
      Driver_core.rmmod id0;
      E1000_drv.reset_module_params ())

(* --- decafctl status at fleet scale --- *)

let fleet_status () =
  Scenario.boot ();
  ignore (setup_fleet 8);
  Scenario.in_thread (fun () ->
      let ids = List.init 8 (fun i -> bind_ok ~dev:(slot_of i) "e1000") in
      let snaps = Driver_core.snapshots () in
      let fleet =
        List.filter (fun s -> s.Driver_core.s_driver = "e1000") snaps
      in
      check "one row per binding under the --driver filter" 8
        (List.length fleet);
      Alcotest.(check (list string))
        "rows stable-sorted by instance" ids
        (List.map (fun s -> s.Driver_core.s_binding) fleet);
      let rendered = Driver_core.render_status snaps in
      check_bool "rendered status has the aggregate TOTAL row" true
        (contains rendered "TOTAL");
      check_bool "fleet ids appear in rendered status" true
        (contains rendered "e1000#7");
      let json = Decaf_experiments.Status.render_json snaps in
      check_bool "json rows carry the binding id" true
        (contains json "\"id\":\"e1000#3\"");
      let summed =
        List.fold_left (fun a s -> a + s.Driver_core.s_rejections) 0 fleet
      in
      check "each row's rejections are its binding's scope" summed
        (List.fold_left
           (fun a id -> a + Boundary.rejected_for id)
           0
           (Driver_core.instances_of "e1000"));
      List.iter Driver_core.rmmod (List.rev ids))

(* --- hotplug churn under switch load: conservation and leaks --- *)

let churn_keeps_invariants () =
  Scenario.boot ();
  let n = 8 in
  let links = setup_fleet n in
  Scenario.in_thread (fun () ->
      let base = tracker_entries () in
      let ids = List.init n (fun i -> bind_ok ~dev:(slot_of i) "e1000") in
      let ports =
        List.mapi
          (fun i link ->
            let nd = netdev_of i in
            open_ok nd;
            { Vswitch.netdev = nd; link })
          links
      in
      (* deterministic LCG so the churn schedule is reproducible *)
      let seed = ref 0x2decaf in
      let rand m =
        seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
        !seed mod m
      in
      let churns = ref 0 in
      let churn_done = ref false in
      ignore
        (K.Sched.spawn ~name:"churner" (fun () ->
             for _ = 1 to 4 do
               K.Sched.sleep_ns (3_000_000 + rand 4_000_000);
               let k = 1 + rand (n - 1) in
               if state_name (Printf.sprintf "e1000#%d" k) = "running" then begin
                 K.Pci.remove_device (pci_dev_at (slot_of k));
                 K.Sched.sleep_ns 500_000;
                 replug k;
                 incr churns
               end
             done;
             churn_done := true));
      let r = Vswitch.run ~ports ~duration_ns:40_000_000 ~msg_bytes:1500 in
      (* the churner may still be mid-drain when the switch run ends;
         give it bounded time to finish before tearing the fleet down *)
      let waited = ref 0 in
      while (not !churn_done) && !waited < 200 do
        K.Sched.sleep_ns 1_000_000;
        incr waited
      done;
      check_bool "churn schedule completed" true !churn_done;
      check_bool "at least one eject/replug cycle ran" true (!churns > 0);
      check_bool "fleet still passing traffic through churn" true
        (r.Vswitch.aggregate_mbps > 0.);
      Batch.drain ();
      List.iter
        (fun id -> if state_name id <> "removed" then Driver_core.rmmod id)
        ids;
      ring_conserved ();
      check "no leaked tracker entries after churn" base (tracker_entries ()))

(* --- allocation per frame on the fleet path --- *)

(* Four ports on the fleet configuration (batch, delta, 4 workers,
   ring, guard) stream 20 ms through the virtual switch. The frame path
   reuses the switch's payload and skb, its per-port callbacks, the
   NICs' and links' frame rings, the Clock slab and the latency handles,
   so a frame allocates nothing: the 4.8 words per frame measured are
   the run's own (the sleeping caller, ring records, doorbells), 41
   when each frame still carried its queue cells, stamps and
   closures. *)
let fleet_alloc_per_frame () =
  Scenario.boot ();
  workloads_config ();
  let n = 4 in
  let links = setup_fleet n in
  Scenario.in_thread (fun () ->
      let ids = List.init n (fun i -> bind_ok ~dev:(slot_of i) "e1000") in
      let ports =
        List.mapi
          (fun i link ->
            let nd = netdev_of i in
            open_ok nd;
            { Vswitch.netdev = nd; link })
          links
      in
      let w0 = Gc.minor_words () in
      let r = Vswitch.run ~ports ~duration_ns:20_000_000 ~msg_bytes:1500 in
      let words = Gc.minor_words () -. w0 in
      check_bool "frames were sent" true (r.Vswitch.packets > 1_000);
      let per_frame = words /. float_of_int r.Vswitch.packets in
      check_bool
        (Printf.sprintf "%.2f words per frame <= 5.2" per_frame)
        true (per_frame <= 5.2);
      List.iter Driver_core.rmmod ids)

(* --- one PCI binding family under e1000, 8139too and ens1371 --- *)

type family = {
  f_name : string;
  f_setup : int -> unit;  (** plug device [i] into the bus *)
  f_active : unit -> bool;
}

let families =
  let link () = Hw.Link.create ~rate_bps:100_000_000 () in
  [
    {
      f_name = "e1000";
      f_setup =
        (fun i ->
          ignore
            (E1000_drv.setup_device ~slot:(slot_of i) ~mmio_base:(mmio_of i)
               ~irq:(32 + i) ~mac:(mac_of i) ~link:(link ()) ()));
      f_active = (fun () -> E1000_drv.active () <> None);
    };
    {
      f_name = "8139too";
      f_setup =
        (fun i ->
          ignore
            (Rtl8139_drv.setup_device ~slot:(slot_of i)
               ~io_base:(0xc000 + (i * 0x100))
               ~irq:(32 + i) ~mac:(mac_of i) ~link:(link ()) ()));
      f_active = (fun () -> Rtl8139_drv.active () <> None);
    };
    {
      f_name = "ens1371";
      f_setup =
        (fun i ->
          ignore
            (Ens1371_drv.setup_device ~slot:(slot_of i)
               ~io_base:(0xd000 + (i * 0x40))
               ~irq:(32 + i) ()));
      f_active = (fun () -> Ens1371_drv.active () <> None);
    };
  ]

let loads name =
  List.length (List.filter (String.equal name) (K.Modules.loaded ()))

(* Two devices of each driver over one refcounted module load: instance
   ids, the [active] box, rmmod and eject of one sibling, the unload at
   the last rmmod, and a boot that forgets all of it. *)
let pci_family_lifecycle () =
  List.iter
    (fun f ->
      let name = f.f_name and id1 = f.f_name ^ "#1" in
      let what s = name ^ ": " ^ s in
      Scenario.boot ();
      f.f_setup 0;
      f.f_setup 1;
      Scenario.in_thread (fun () ->
          check_str (what "first bind") name (bind_ok ~dev:(slot_of 0) name);
          check_str (what "second bind") id1 (bind_ok ~dev:(slot_of 1) name);
          check (what "one module load") 1 (loads name);
          check_bool (what "active set") true (f.f_active ());
          Driver_core.rmmod name;
          check_str (what "sibling survives rmmod") "running" (state_name id1);
          check (what "module stays loaded") 1 (loads name);
          check_bool (what "active cleared") false (f.f_active ());
          check_str (what "rebind reuses the bare id") name
            (bind_ok ~dev:(slot_of 0) name);
          check_bool (what "active set again") true (f.f_active ());
          Driver_core.eject id1;
          check_str (what "eject spares instance 0") "running"
            (state_name name);
          check (what "module still loaded") 1 (loads name);
          Driver_core.rmmod name;
          check (what "last rmmod unloads") 0 (loads name);
          ignore (bind_ok ~dev:(slot_of 0) name));
      check (what "loaded going into boot") 1 (loads name);
      Scenario.boot ();
      check_bool (what "boot forgets active") false (f.f_active ());
      check (what "boot unloads") 0 (loads name);
      check_str (what "boot unbinds") "unbound" (state_name name);
      f.f_setup 0;
      Scenario.in_thread (fun () ->
          check_str (what "fresh bind after boot") name
            (bind_ok ~dev:(slot_of 0) name);
          check (what "one fresh load") 1 (loads name);
          Driver_core.rmmod name))
    families

(* --- unbind revokes the capabilities it was issued --- *)

(* Per NIC: its shared structure's live handle, and that handle
   resolved as the structure's type, read from the bound instance. *)
let nic_handles =
  [
    ( "e1000",
      fun () ->
        let k = E1000_drv.kernel_adapter (Option.get (E1000_drv.active ())) in
        (E1000_objects.handle k, E1000_objects.resolve) );
    ( "8139too",
      fun () ->
        let k = Rtl8139_drv.kernel_nic (Option.get (Rtl8139_drv.active ())) in
        (Rtl8139_objects.handle k, Rtl8139_objects.resolve) );
  ]

let unbind_revokes_handles () =
  List.iter
    (fun (name, live_handle) ->
      let f = List.find (fun f -> f.f_name = name) families in
      let what s = name ^ ": " ^ s in
      Scenario.boot ();
      f.f_setup 0;
      Scenario.in_thread (fun () ->
          let kt = Runtime.kernel_tracker () in
          let before = Objtracker.handle_count kt in
          let id = bind_ok ~dev:(slot_of 0) name in
          let h, resolve = live_handle () in
          check_bool (what "handles issued while bound") true
            (Objtracker.handle_count kt > before);
          check_bool (what "the handle resolves while bound") true
            (Result.is_ok (resolve h));
          Driver_core.rmmod id;
          check (what "handle count back to its pre-bind value") before
            (Objtracker.handle_count kt);
          let rejected = (Objtracker.stats kt).Objtracker.rejected
          and total = Boundary.totals.Boundary.rejected in
          (match resolve h with
          | Ok _ -> Alcotest.fail (what "a pre-unbind handle still resolves")
          | Error reason ->
              check_bool
                (what "a replayed pre-unbind handle is refused as stale")
                true (contains reason "stale"));
          check (what "the refusal is counted by the tracker") (rejected + 1)
            (Objtracker.stats kt).Objtracker.rejected;
          check (what "and at the boundary") (total + 1)
            Boundary.totals.Boundary.rejected))
    nic_handles

(* --- registry order: instance reuse and hotplug visits --- *)

(* A bind takes the lowest free instance, however the instances above
   it were freed, and mints a new one only when none is free. *)
let bind_reuses_lowest_free () =
  Scenario.boot ();
  ignore (setup_fleet 6);
  Scenario.in_thread (fun () ->
      let ids = List.init 5 (fun i -> bind_ok ~dev:(slot_of i) "e1000") in
      Alcotest.(check (list string))
        "five instances" [ "e1000"; "e1000#1"; "e1000#2"; "e1000#3"; "e1000#4" ]
        ids;
      List.iter Driver_core.rmmod [ "e1000#3"; "e1000#1"; "e1000#4"; "e1000" ];
      let rebound =
        List.map (fun i -> bind_ok ~dev:(slot_of i) "e1000") [ 4; 1; 3; 0; 5 ]
      in
      Alcotest.(check (list string))
        "freed instances reused lowest first, then a new one"
        [ "e1000"; "e1000#1"; "e1000#3"; "e1000#4"; "e1000#5" ]
        rebound;
      Alcotest.(check (list string))
        "instances_of in instance order"
        [ "e1000"; "e1000#1"; "e1000#2"; "e1000#3"; "e1000#4"; "e1000#5" ]
        (Driver_core.instances_of "e1000");
      List.iter Driver_core.rmmod (Driver_core.instances_of "e1000"))

(* Two unpinned bindings lose their devices; one device comes back.
   The registry offers it to the bindings in creation order, so the
   older one takes it and the newer finds nothing left to claim. *)
(* e1000 whose probe can be made to fail with a given errno, as a device
   that does not come up would (registered under e1000's name). *)
let probe_fails = ref None

let failing_e1000 =
  let (Driver_core.Pack (module D)) = E1000_drv.packed in
  Driver_core.Pack
    (module struct
      include D

      let probe env ~dev =
        match !probe_fails with Some rc -> Error rc | None -> D.probe env ~dev
    end)

let hotplug_visits_in_creation_order () =
  Scenario.boot ();
  probe_fails := None;
  Driver_core.register failing_e1000;
  ignore (setup_fleet 2);
  Scenario.in_thread (fun () ->
      (match Driver_core.insmod "e1000" ~mode:Driver_env.Decaf with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "insmod e1000 failed: %d" rc);
      let id1 = bind_ok "e1000" in
      check_str "second unpinned binding" "e1000#1" id1;
      K.Pci.remove_device (pci_dev_at (slot_of 0));
      K.Pci.remove_device (pci_dev_at (slot_of 1));
      check_str "first ejected" "removed" (state_name "e1000");
      check_str "second ejected" "removed" (state_name id1);
      replug 1;
      check_str "the older binding takes the device" "running"
        (state_name "e1000");
      check_str "the newer finds nothing to claim" "unbound" (state_name id1);
      check_bool "the older binding owns the replugged slot" true
        (E1000_drv.netdev_at ~slot:(slot_of 1) <> None);
      (* hotplug log lines name the binding, not its driver *)
      let logged line =
        List.exists (fun l -> contains l line) (K.Klog.dmesg ())
      in
      check_bool "the removal names e1000#1" true
        (logged "driver_core: e1000#1: device 01:00.0 removed");
      (* finding nothing to claim (-ENODEV) is no failure *)
      check_bool "no warning for the binding that found nothing" false
        (logged "hotplug re-probe failed");
      (* a probe that fails for real still warns *)
      probe_fails := Some (-5);
      replug 0;
      probe_fails := None;
      check_str "the newer binding failed to claim it" "unbound"
        (state_name id1);
      check_bool "the failed re-probe names e1000#1" true
        (logged "driver_core: e1000#1: hotplug re-probe failed (errno -5)");
      check_bool "still no -ENODEV warning" false (logged "(errno -19)");
      Driver_core.rmmod "e1000")

(* --- bring-up cost per bind stays flat across the fleet --- *)

(* 256 binds on the fleet configuration, each measured in words
   allocated. The registries a bind touches are indexed, so a late bind
   allocates what an early one does: the median of the last 16 binds
   stays within 1.10x of the median of binds 17-32 (measured 1.00,
   3,865 words each). With the registries scanned and appended to, the
   ratio is 3.17 (17,718 against 5,595 words). *)
let bind_alloc_flat () =
  Scenario.boot ();
  workloads_config ();
  let n = 256 in
  ignore (setup_fleet n);
  Scenario.in_thread (fun () ->
      let words =
        Array.init n (fun i ->
            words_of (fun () -> ignore (bind_ok ~dev:(slot_of i) "e1000")))
      in
      let early = median (Array.sub words 16 16)
      and late = median (Array.sub words (n - 16) 16) in
      check_bool
        (Printf.sprintf "late binds %.0f words, early %.0f: ratio %.2f <= 1.10"
           late early (late /. early))
        true
        (late <= 1.10 *. early);
      List.iter Driver_core.rmmod (Driver_core.instances_of "e1000"))

(* --- absolute bring-up gates on the workloads' configuration --- *)

(* 64 e1000 binds: the median words of binds 17-64. A probe crosses to
   the decaf driver and reads the EEPROM word by word, so this prices
   the crossing, the handshake retry, the object names and the per-load
   tables together: 1,575 words, 3,131 when each crossing built its
   closures, options and stamp record. *)
let e1000_bind_alloc () =
  Scenario.boot ();
  workloads_config ();
  let n = 64 in
  ignore (setup_fleet n);
  Scenario.in_thread (fun () ->
      let words =
        Array.init n (fun i ->
            words_of (fun () -> ignore (bind_ok ~dev:(slot_of i) "e1000")))
      in
      let m = median (Array.sub words 16 (n - 16)) in
      check_bool (Printf.sprintf "%.0f words per e1000 bind <= 1730" m) true
        (m <= 1730.);
      List.iter Driver_core.rmmod (Driver_core.instances_of "e1000"))

(* One bound e1000 suspended and resumed 40 times: the median words of
   the last 32 cycles, 918 (1,727 with per-crossing closures). *)
let e1000_pm_alloc () =
  Scenario.boot ();
  workloads_config ();
  ignore (setup_fleet 1);
  Scenario.in_thread (fun () ->
      let id = bind_ok ~dev:(slot_of 0) "e1000" in
      let ok what = function
        | Ok () -> ()
        | Error rc -> Alcotest.failf "%s failed: %d" what rc
      in
      let words =
        Array.init 40 (fun _ ->
            words_of (fun () ->
                ok "suspend" (Driver_core.suspend id);
                ok "resume" (Driver_core.resume id)))
      in
      let m = median (Array.sub words 8 32) in
      check_bool
        (Printf.sprintf "%.0f words per suspend and resume <= 1010" m)
        true (m <= 1010.);
      Driver_core.rmmod id)

(* A whole machine booted onto the workloads' configuration 24 times:
   the median words of the last 16 boots, 2,530 (5,378 when every lock
   and tracker shard formatted its name with [Printf]). *)
let machine_boot_alloc () =
  let words =
    Array.init 24 (fun _ ->
        words_of (fun () ->
            Scenario.boot ();
            workloads_config ()))
  in
  let m = median (Array.sub words 8 16) in
  check_bool (Printf.sprintf "%.0f words per boot <= 2780" m) true
    (m <= 2780.)

let () =
  Alcotest.run "fleet"
    [
      ( "fleet",
        [
          Alcotest.test_case "double bind is isolated" `Quick
            double_bind_isolated;
          Alcotest.test_case "surprise removal spares siblings" `Quick
            surprise_removal_isolated;
          Alcotest.test_case "per-instance params" `Quick per_instance_params;
          Alcotest.test_case "status at fleet scale" `Quick fleet_status;
          Alcotest.test_case "churn keeps invariants" `Quick
            churn_keeps_invariants;
          Alcotest.test_case "allocation per frame" `Quick
            fleet_alloc_per_frame;
          Alcotest.test_case "one pci binding family" `Quick
            pci_family_lifecycle;
          Alcotest.test_case "allocation per bind" `Quick bind_alloc_flat;
          Alcotest.test_case "unbind revokes handles" `Quick
            unbind_revokes_handles;
          Alcotest.test_case "bind reuses the lowest free instance" `Quick
            bind_reuses_lowest_free;
          Alcotest.test_case "hotplug visits bindings in creation order"
            `Quick hotplug_visits_in_creation_order;
          Alcotest.test_case "e1000 bind allocation" `Quick e1000_bind_alloc;
          Alcotest.test_case "e1000 suspend and resume allocation" `Quick
            e1000_pm_alloc;
          Alcotest.test_case "machine boot allocation" `Quick
            machine_boot_alloc;
        ] );
    ]
