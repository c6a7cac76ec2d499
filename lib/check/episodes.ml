(* The episode library: each episode plugs real devices on the
   evaluation machine ({!Decaf_workloads.Rig}), binds their drivers
   through {!Decaf_drivers.Driver_core} in the decaf build, races one
   lifecycle operation against the device or the deferred XPC
   machinery, and ends with every binding Removed. Each is explored
   exhaustively ({!Explore.full_depth}). Episode threads are
   named: thread names are the vocabulary replay traces are written
   in. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
open Decaf_drivers
open Decaf_workloads

let mode = Driver_env.Decaf
let spawn name f = ignore (K.Sched.spawn ~name f)
let vf = Invariants.vf
let ok what r = ignore (Rig.ok what r)

(* The device asserts its line twice, letting the other threads run in
   between. *)
let irq_burst line () =
  K.Irq.raise_irq line;
  K.Sched.yield ();
  K.Irq.raise_irq line

(* --- the shared end-of-episode check --- *)

(* Every binding the episode made is Removed, and removal left nothing
   behind: no capability handle, claimed irq line, allocation or loaded
   module. *)
let removed_check () =
  let bound =
    List.filter
      (fun s -> s.Driver_core.s_state <> Driver_core.Unbound)
      (Driver_core.snapshots ())
  in
  let states =
    if bound = [] then [ vf "lifecycle" "no driver was bound" ]
    else
      List.filter_map
        (fun s ->
          if s.Driver_core.s_state = Driver_core.Removed then None
          else
            Some
              (vf "lifecycle" "%s finished in state %s, expected removed"
                 s.Driver_core.s_binding
                 (Driver_core.lifecycle_name s.Driver_core.s_state)))
        bound
  in
  let handles =
    Xpc.Objtracker.handle_count (Decaf_runtime.Runtime.kernel_tracker ())
  in
  states
  @ (if handles = 0 then []
     else
       [ vf "leak" "kernel tracker holds %d handle(s) after removal" handles ])
  @ List.map
      (fun (n, owner) -> vf "leak" "irq %d still claimed by %s" n owner)
      (K.Irq.claimed ())
  @ match K.Boot.check_quiescent () with
    | Ok () -> []
    | Error what -> [ vf "leak" "%s" what ]

let ep name setup =
  {
    Explore.ep_name = name;
    ep_setup =
      (fun () ->
        Driver_set.register_defaults ();
        Xpc.Batch.set_enabled true;
        setup ());
    ep_check = removed_check;
  }

(* --- 1: the device asserts its line while insmod and open run --- *)

(* A NIC claims its line at open, so the bring-up the irq races is
   probe and open. *)
let probe_irq driver =
  ep ("probe-irq/" ^ driver) (fun () ->
      let dev = Rig.plug driver in
      spawn "loader" (fun () ->
          ok "insmod" (Driver_core.insmod driver ~mode);
          Rig.up dev;
          Driver_core.rmmod driver);
      spawn "irqgen" (irq_burst (Rig.irq driver)))

(* --- 2: unload after a traffic slice races the interrupt handler --- *)

let rmmod_irq driver =
  ep ("rmmod-irq/" ^ driver) (fun () ->
      let dev = Rig.plug driver in
      spawn "loader" (fun () ->
          ok "insmod" (Driver_core.insmod driver ~mode);
          Rig.up dev;
          Rig.slice dev;
          spawn "unloader" (fun () -> Driver_core.rmmod driver);
          spawn "irqgen" (irq_burst (Rig.irq driver))))

(* --- 3: PM suspend races the flush of a notify the slice queued --- *)

let suspend_flush driver =
  ep ("suspend-flush/" ^ driver) (fun () ->
      let dev = Rig.plug driver in
      spawn "loader" (fun () ->
          ok "insmod" (Driver_core.insmod driver ~mode);
          Rig.slice dev;
          spawn "pm" (fun () ->
              ok "suspend" (Driver_core.suspend driver);
              ok "resume" (Driver_core.resume driver);
              Driver_core.rmmod driver)))

(* --- 4: surprise removal races the shared-ring doorbell --- *)

let eject_doorbell driver =
  ep ("eject-doorbell/" ^ driver) (fun () ->
      Xpc.Ring.set_enabled true;
      let dev = Rig.plug driver in
      spawn "loader" (fun () ->
          ok "insmod" (Driver_core.insmod driver ~mode);
          Rig.up dev;
          Rig.slice dev;
          spawn "irqgen" (irq_burst (Rig.irq driver));
          spawn "hotplug" (fun () -> Driver_core.eject driver)))

(* --- 5: two e1000 fleet ports churned: unload, rebind, unload --- *)

(* Each port is bound and opened: its link-up interrupt posts a state
   notification (the ring is off), and its watchdog runs until unload. *)
let fleet_churn =
  let bind port =
    let slot = Rig.port_slot port in
    let id =
      Rig.ok "bind" (Driver_core.bind_device "e1000" ~dev:slot ~mode ())
    in
    ok "open" (K.Netcore.open_dev (Option.get (E1000_drv.netdev_at ~slot)));
    id
  in
  ep "fleet-churn/e1000" (fun () ->
      ignore (Rig.plug_e1000 ~port:0 ());
      ignore (Rig.plug_e1000 ~port:1 ());
      spawn "loader" (fun () ->
          let a = bind 0 in
          let b = bind 1 in
          spawn "churn-a" (fun () ->
              Driver_core.rmmod a;
              Driver_core.rmmod (bind 0));
          spawn "churn-b" (fun () -> Driver_core.rmmod b)))

(* --- 6: surprise removal races the probe --- *)

(* The device leaves the bus while the probe sleeps (8139too's chip
   reset, ens1371's codec calibration), when the binding has no instance
   to eject yet. *)
let eject_probe driver =
  ep ("eject-probe/" ^ driver) (fun () ->
      ignore (Rig.plug driver);
      spawn "loader" (fun () ->
          ignore (Driver_core.insmod driver ~mode);
          match Driver_core.state driver with
          | Running | Suspended -> Driver_core.rmmod driver
          | _ -> ());
      spawn "hotplug" (fun () ->
          K.Sched.sleep_ns 5_000_000;
          Rig.unplug driver))

let all =
  List.map probe_irq [ "8139too"; "e1000" ]
  @ List.map rmmod_irq Driver_set.names
  @ List.map suspend_flush [ "ens1371"; "uhci-hcd" ]
  @ List.map eject_doorbell [ "8139too"; "e1000" ]
  @ [ fleet_churn ]
  @ List.map eject_probe [ "8139too"; "ens1371" ]

let find name =
  List.find_opt (fun e -> e.Explore.ep_name = name) all
