(* The episode library: each episode is a small concurrent scenario over
   the real registry/XPC machinery, exhaustively explored to a bounded
   branching depth. Episode threads are named — thread names are the
   vocabulary replay traces are written in. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
open Decaf_drivers

let mode = Driver_env.Staged

let spawn name f = ignore (K.Sched.spawn ~name f)

let dev id =
  match Chkdev.find id with
  | Some d -> d
  | None -> K.Panic.bug "chkdev episode: %s not bound" id

let vf = Invariants.vf

(* --- shared checks --- *)

let after_free_check () =
  List.rev_map (fun w -> vf "after-free" "%s" w) !Chkdev.after_free

let state_check id want =
  let st = Driver_core.state id in
  if st = want then []
  else
    [
      vf "lifecycle" "%s finished in state %s, expected %s" id
        (Driver_core.lifecycle_name st)
        (Driver_core.lifecycle_name want);
    ]

let handle_check want =
  let c =
    Xpc.Objtracker.handle_count (Decaf_runtime.Runtime.kernel_tracker ())
  in
  if c = want then []
  else [ vf "leak" "kernel tracker holds %d handle(s) at quiescence, expected %d" c want ]

let ep ~name ~descr ~depth ~smoke ~execs setup check =
  {
    Explore.ep_name = name;
    ep_descr = descr;
    ep_depth = depth;
    ep_smoke_depth = smoke;
    ep_max_execs = execs;
    ep_setup = setup;
    ep_check = check;
  }

(* --- 1: interrupts arriving while the probe is still running --- *)

let probe_irq =
  ep ~name:"probe-irq"
    ~descr:"device asserts its line while insmod/probe is in flight"
    ~depth:5 ~smoke:2 ~execs:600
    (fun () ->
      Chkdev.register ();
      spawn "loader" (fun () -> ignore (Driver_core.insmod Chkdev.name ~mode));
      spawn "irqgen" (fun () ->
          K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name);
          K.Sched.yield ();
          K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name)))
    (fun () ->
      after_free_check ()
      @ state_check Chkdev.name Driver_core.Running
      @ handle_check 1)

(* --- 2: rmmod racing the interrupt handler --- *)

let rmmod_irq =
  ep ~name:"rmmod-irq"
    ~descr:"module unload races the device's interrupt handler"
    ~depth:5 ~smoke:2 ~execs:600
    (fun () ->
      Chkdev.register ();
      spawn "loader" (fun () ->
          ignore (Driver_core.insmod Chkdev.name ~mode);
          spawn "unloader" (fun () -> Driver_core.rmmod Chkdev.name);
          spawn "irqgen" (fun () ->
              K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name);
              K.Sched.yield ();
              K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name))))
    (fun () ->
      after_free_check ()
      @ state_check Chkdev.name Driver_core.Removed
      @ handle_check 0)

(* --- 3: suspend racing the deferred-notification flush --- *)

let suspend_flush =
  ep ~name:"suspend-flush"
    ~descr:"PM suspend races batched-notification flush (batching on)"
    ~depth:5 ~smoke:2 ~execs:600
    (fun () ->
      Chkdev.register ();
      Xpc.Batch.set_enabled true;
      spawn "loader" (fun () ->
          ignore (Driver_core.insmod Chkdev.name ~mode);
          Chkdev.kick (dev Chkdev.name);
          Chkdev.kick (dev Chkdev.name);
          spawn "pm" (fun () ->
              ignore (Driver_core.suspend Chkdev.name);
              ignore (Driver_core.resume Chkdev.name));
          spawn "kicker" (fun () -> Chkdev.kick (dev Chkdev.name))))
    (fun () ->
      after_free_check ()
      @ state_check Chkdev.name Driver_core.Running
      @ handle_check 1)

(* --- 4: surprise removal racing the ring doorbell --- *)

let eject_doorbell =
  ep ~name:"eject-doorbell"
    ~descr:"surprise device removal races the shared-ring doorbell"
    ~depth:5 ~smoke:2 ~execs:600
    (fun () ->
      Chkdev.register ();
      spawn "loader" (fun () ->
          ignore (Driver_core.insmod Chkdev.name ~mode);
          spawn "irqgen" (fun () ->
              K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name);
              K.Sched.yield ();
              K.Irq.raise_irq (Chkdev.irq_of_id Chkdev.name));
          spawn "hotplug" (fun () -> Driver_core.eject Chkdev.name)))
    (fun () ->
      after_free_check ()
      @ state_check Chkdev.name Driver_core.Removed
      @ handle_check 0)

(* --- 5: two-instance fleet churn with rebind --- *)

let fleet_churn =
  ep ~name:"fleet-churn"
    ~descr:"two instances churned concurrently: kick, unload, rebind"
    ~depth:4 ~smoke:2 ~execs:600
    (fun () ->
      Chkdev.register ();
      spawn "loader" (fun () ->
          ignore (Driver_core.bind_device Chkdev.name ~mode ());
          ignore (Driver_core.bind_device Chkdev.name ~mode ());
          spawn "churn-a" (fun () ->
              Chkdev.kick (dev Chkdev.name);
              Driver_core.rmmod Chkdev.name;
              ignore (Driver_core.bind_device Chkdev.name ~mode ()));
          spawn "churn-b" (fun () ->
              Chkdev.kick (dev (Chkdev.name ^ "#1"));
              Driver_core.rmmod (Chkdev.name ^ "#1"))))
    (fun () ->
      (* churn-a rebinds the first freed instance slot, which is always
         instance 0: the family is scanned in instance order and
         instance 0 is Removed by the time churn-a rebinds (its own
         rmmod precedes the rebind in program order). *)
      after_free_check ()
      @ state_check Chkdev.name Driver_core.Running
      @ state_check (Chkdev.name ^ "#1") Driver_core.Removed
      @ handle_check 1)

(* --- 6: combolock acquisition-order discipline --- *)

let lock_hierarchy =
  let a_done = ref false and b_done = ref false in
  ep ~name:"lock-hierarchy"
    ~descr:"two paths nest the combolock pair; order discipline must hold"
    ~depth:6 ~smoke:3 ~execs:600
    (fun () ->
      Chkdev.register ();
      a_done := false;
      b_done := false;
      spawn "loader" (fun () ->
          ignore (Driver_core.insmod Chkdev.name ~mode);
          spawn "path-a" (fun () ->
              Chkdev.kick_pair (dev Chkdev.name);
              a_done := true);
          spawn "path-b" (fun () ->
              Chkdev.flush_pair (dev Chkdev.name);
              b_done := true)))
    (fun () ->
      after_free_check ()
      @ (if !a_done && !b_done then []
         else [ vf "deadlock" "lock-hierarchy paths did not all complete" ])
      @ state_check Chkdev.name Driver_core.Running
      @ handle_check 1)

let all =
  [
    probe_irq;
    rmmod_irq;
    suspend_flush;
    eject_doorbell;
    fleet_churn;
    lock_hierarchy;
  ]

let find name =
  List.find_opt (fun e -> e.Explore.ep_name = name) all
