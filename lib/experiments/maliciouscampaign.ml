(* Malicious-driver campaign: the adversarial counterpart of
   Faultcampaign.  Where the fault campaign models a failing DEVICE,
   this one models a compromised USER-LEVEL DRIVER — hostile return
   values, forged and stale capability handles, cross-type handle
   confusion at aliased addresses, replayed delta acknowledgements,
   unbounded deferred-call queues, and attacks timed into suspend/
   resume and hotplug windows.  The figure of merit is the boundary-
   hardening claim: every attack is rejected at the XPC boundary and
   either absorbed (drop + count) or routed to the recovery supervisor
   as an ordinary driver fault.  Nothing panics the kernel, and no
   kernel object absorbs an unvalidated write. *)

module Xpc = Decaf_xpc
module Codec = Xpc.Codec
module Errors = Decaf_runtime.Errors
module Supervisor = Decaf_runtime.Supervisor
module Runtime = Decaf_runtime.Runtime
open Decaf_drivers
open Decaf_workloads

type trial = {
  driver : string;
  attack : string;
  expected : string;
  outcome : string;
  rejections : int;  (* boundary violations detected during the trial *)
  dropped : int;  (* inbound work discarded without a fault *)
  restarts : int;
  corrupted : int;  (* kernel-object fields mutated by a rejected image *)
  kernel_bugs : int;
}

type report = {
  seed : int;
  trials : trial list;
  total_rejections : int;
  total_dropped : int;
  total_restarts : int;
  total_corrupted : int;
  total_kernel_bugs : int;
}

(* --- hostile wire images ---

   A compromised decaf driver controls the reply bytes of an upcall, so
   the campaign crafts them with [Codec.payload]: any handle bits, any
   presence flags (including fields the plan marks Read), any values —
   in the wire format the kernel glue decodes. *)

(* Seeded hostile scalar: out of every rule's envelope, deterministic
   per trial so failures replay. *)
let hostile_int rng =
  match Random.State.int rng 3 with
  | 0 -> -(1 + Random.State.int rng 1000)
  | 1 -> 0x10000 + Random.State.int rng 0xffff
  | _ -> 0x7fff_ffff - Random.State.int rng 17

(* --- kernel-object invariant snapshots ---

   "Corrupted" means a rejected inbound image still mutated the kernel
   object: the validate-everything-then-apply discipline makes this
   impossible, and the campaign measures it rather than assumes it. *)

let snapshot fields () = Codec.values fields

(* Run [attack] (expected to raise a boundary fault) and record whether
   the attacked object changed despite the rejection. *)
let checked corrupted snapshot attack =
  let pre = snapshot () in
  Fun.protect
    ~finally:(fun () -> if snapshot () <> pre then incr corrupted)
    attack

(* --- generic attacks (drivers without a shared-object layer) --- *)

(* Present a handle the kernel never issued for this type; the glue
   treats the failed resolution as a boundary fault, as the generated
   unmarshal code does. *)
let resolve_or_fault ~driver ~type_id handle =
  Xpc.Boundary.scoped driver (fun () ->
      match
        Xpc.Objtracker.resolve (Runtime.kernel_tracker ()) ~handle ~type_id
      with
      | Error reason ->
          raise
            (Xpc.Boundary.Boundary_violation { type_id; field = "handle"; reason })
      | Ok _ -> ())

(* A driver that posts deferred calls without ever letting the queue
   drain: tighten the queue bound, then flood without yielding.  The
   overflow is absorbed — drop + count, no fault — because posting is
   legal from interrupt context. *)
let flood_posts ~context n =
  Xpc.Guard.configure ~max_batch_queue:8 ();
  for _ = 1 to n do
    Xpc.Batch.post ~target:Xpc.Domain.Decaf_driver ~payload_bytes:64 ~context
      (fun () -> ())
  done

(* --- trial harness --- *)

type case = {
  c_driver : string;
  c_attack : string;
  c_expected : string;
  c_scene : Random.State.t -> corrupted:int ref -> Trial.body;
      (** the supervised body: the driver's traffic around the attack,
          usually one-shot so the supervisor's retry converges; the
          attack counts corrupted kernel objects in [corrupted] *)
}

let run_case ~seed c =
  let corrupted = ref 0 in
  let r =
    Trial.run ~seed c.c_driver
      (c.c_scene (Random.State.make [| seed |]) ~corrupted)
  in
  let sup = r.Trial.supervisor in
  let st = Supervisor.stats sup in
  let totals = Xpc.Boundary.totals in
  let outcome =
    if r.Trial.kernel_bugs > 0 then "KERNEL-BUG"
    else if Supervisor.state sup = Supervisor.Disabled then "degraded"
    else if st.Supervisor.detected > 0 then "recovered"
    else if totals.Xpc.Boundary.dropped > 0 then "dropped"
    else "clean"
  in
  {
    driver = c.c_driver;
    attack = c.c_attack;
    expected = c.c_expected;
    outcome;
    rejections = totals.Xpc.Boundary.rejected;
    dropped = totals.Xpc.Boundary.dropped;
    restarts = st.Supervisor.restarts;
    corrupted = !corrupted;
    kernel_bugs = r.Trial.kernel_bugs;
  }

(* --- per-driver scenes --- *)

(* Each scene runs the honest driver's slice, then fires its attack
   exactly once: the supervisor's restart re-runs the body, the attack
   does not repeat, and the episode converges to a healthy driver — the
   "recovered" outcome.  Attacks marked persistent re-arm on every run
   and exhaust the restart budget instead. *)
let once ?(persistent = false) attack =
  let armed = ref true in
  fun () ->
    if !armed then begin
      if not persistent then armed := false;
      attack ()
    end

let rtl_scene attack _rng ~corrupted =
  Trial.After
    (once (fun () ->
         attack ~corrupted
           (Rtl8139_drv.kernel_nic (Option.get (Rtl8139_drv.active ())))))

let e1000_scene ?persistent attack _rng ~corrupted =
  Trial.After
    (once ?persistent (fun () ->
         attack ~corrupted
           (E1000_drv.kernel_adapter (Option.get (E1000_drv.active ())))))

(* ens1371, uhci-hcd and psmouse have no shared-object layer *)
let scene attack _rng ~corrupted = Trial.After (once (attack ~corrupted))

(* --- e1000 attacks --- *)

module EO = E1000_objects
module RO = Rtl8139_objects

let e1000_apply ~corrupted ka payload =
  checked corrupted (snapshot ka.EO.fields) (fun () ->
      Xpc.Boundary.scoped "e1000" (fun () ->
          EO.unmarshal_at_kernel payload ka))

let e1000_fuzz rng ~corrupted ka =
  e1000_apply ~corrupted ka
    (Codec.payload EO.codec ~handle:(EO.adapter_handle ka)
       [
         ("msg_enable", Codec.I (hostile_int rng));
         ("flags", Codec.I (-1 - Random.State.int rng 7));
       ])

let e1000_readonly_write ~corrupted ka =
  (* mtu is Read in the plan: presence inbound is an attempted write
     through a read-only view, whatever the value *)
  e1000_apply ~corrupted ka
    (Codec.payload EO.codec ~handle:(EO.adapter_handle ka)
       [ ("mtu", Codec.I 1500) ])

let e1000_oversized ~corrupted ka =
  (* 1500 uints ~ 6 KB: over the inbound payload bound before any field
     is even decoded *)
  e1000_apply ~corrupted ka
    (Codec.payload EO.codec ~handle:(EO.adapter_handle ka)
       [ ("config_space", Codec.W (Array.make 1500 0xffff_ffff)) ])

let e1000_forged_handle rng ~corrupted ka =
  e1000_apply ~corrupted ka
    (Codec.payload EO.codec
       ~handle:(0x1dea_d000 + Random.State.int rng 0xfff)
       [])

let e1000_stale_handle ~corrupted ka =
  let h = EO.adapter_handle ka in
  Xpc.Objtracker.remove_by_handle (Runtime.kernel_tracker ()) ~handle:h;
  e1000_apply ~corrupted ka (Codec.payload EO.codec ~handle:h [])

let e1000_cross_type ~corrupted ka =
  (* the tx ring shares the adapter's C address (§3.1.2): its handle is
     a real capability, just not for this type *)
  e1000_apply ~corrupted ka
    (Codec.payload EO.codec ~handle:(EO.tx_ring_handle ka) [])

let e1000_forged_ack ~corrupted:_ ka =
  Xpc.Boundary.scoped "e1000" (fun () ->
      let issued =
        Xpc.Marshal_plan.Dirty.issued (Codec.dirty ka.EO.fields)
      in
      EO.ack_user_view ka ~upto:(issued + 7))

let e1000_flood ~corrupted:_ _ka = flood_posts ~context:"e1000_stats" 50

(* --- shared-ring attacks ---

   The slot ring is mapped in both domains, so a compromised driver can
   scribble arbitrary records into it and ring the doorbell.  The drain
   path validates every slot kernel-side — capability resolution on the
   handle, plan-derived guard rules on the scalar fields — and discards
   what fails, drop + count, without faulting the crossing. *)

let ring_of driver =
  match Xpc.Ring.find ~name:driver with
  | Some ring -> ring
  | None -> Errors.throw ~driver ~errno:19 "shared ring not mapped"

(* Forged slot contents: a handle the kernel never issued, an event
   kind outside the plan's enum, and hostile args under a real handle.
   All three slots must be rejected at drain and the kernel adapter
   left untouched. *)
let e1000_ring_forged rng ~corrupted ka =
  let ring = ring_of "e1000" in
  checked corrupted (snapshot ka.EO.fields) (fun () ->
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = EO.ring_ev_stats;
             handle = 0x4bad_0000 + Random.State.int rng 0xfff;
             arg0 = 1;
             arg1 = 0;
           });
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = 99;
             handle = EO.adapter_handle ka;
             arg0 = 1;
             arg1 = 0;
           });
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = EO.ring_ev_link;
             handle = EO.adapter_handle ka;
             arg0 = hostile_int rng;
             arg1 = 7;
           });
      Xpc.Ring.drain ring)

(* Overflow flood: well-formed records pumped in faster than any drain,
   past the ring's fixed depth.  The bounded ring absorbs the flood —
   excess slots are dropped and counted, nothing blocks or faults. *)
let e1000_ring_flood ~corrupted:_ ka =
  let ring = ring_of "e1000" in
  for i = 1 to 300 do
    ignore
      (Xpc.Ring.produce ring
         {
           Xpc.Ring.kind = EO.ring_ev_stats;
           handle = EO.adapter_handle ka;
           arg0 = i;
           arg1 = 0;
         })
  done

(* --- 8139too attacks --- *)

let rtl_apply ~corrupted ka payload =
  checked corrupted (snapshot ka.RO.fields) (fun () ->
      Xpc.Boundary.scoped "8139too" (fun () ->
          RO.unmarshal_at_kernel payload ka))

let rtl_fuzz rng ~corrupted ka =
  rtl_apply ~corrupted ka
    (Codec.payload RO.codec ~handle:(RO.handle ka)
       [ ("msg_enable", Codec.I (hostile_int rng)) ])

let rtl_readonly_write ~corrupted ka =
  rtl_apply ~corrupted ka
    (Codec.payload RO.codec ~handle:(RO.handle ka)
       [ ("mc_filter", Codec.W [| 0xffff; 0xffff |]) ])

let rtl_forged_handle rng ~corrupted ka =
  rtl_apply ~corrupted ka
    (Codec.payload RO.codec
       ~handle:(0x2bad_0000 + Random.State.int rng 0xfff)
       [])

let rtl_stale_handle ~corrupted ka =
  let h = RO.handle ka in
  Xpc.Objtracker.remove_by_handle (Runtime.kernel_tracker ()) ~handle:h;
  rtl_apply ~corrupted ka (Codec.payload RO.codec ~handle:h [])

let rtl_forged_ack ~corrupted:_ ka =
  Xpc.Boundary.scoped "8139too" (fun () ->
      let issued =
        Xpc.Marshal_plan.Dirty.issued (Codec.dirty ka.RO.fields)
      in
      RO.ack_user_view ka ~upto:(issued + 3))

let rtl_ring_forged rng ~corrupted ka =
  let ring = ring_of "8139too" in
  checked corrupted (snapshot ka.RO.fields) (fun () ->
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = RO.ring_ev_stats;
             handle = 0x5bad_0000 + Random.State.int rng 0xfff;
             arg0 = 1;
             arg1 = 0;
           });
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = 7;
             handle = RO.handle ka;
             arg0 = 1;
             arg1 = 0;
           });
      ignore
        (Xpc.Ring.produce ring
           {
             Xpc.Ring.kind = RO.ring_ev_rx_dropped;
             handle = RO.handle ka;
             (* rx_dropped is a counter: negative is out of envelope *)
             arg0 = -(1 + Random.State.int rng 1000);
             arg1 = 0;
           });
      Xpc.Ring.drain ring)

(* --- hostile hotplug / PM windows --- *)

(* Suspend the adapter, then attack while it sits in the window: the
   boundary fault interrupts the PM sequence itself, and recovery has
   to re-probe out of the suspended state. *)
let e1000_pm_window_scene _rng ~corrupted =
  Trial.Suspended
    (once (fun () ->
         e1000_apply ~corrupted
           (E1000_drv.kernel_adapter (Option.get (E1000_drv.active ())))
           (Codec.payload EO.codec ~handle:0x5bad_f00d [])))

(* Replay a capability across an eject/replug window: the unbind path
   revoked it, so the replayed handle is stale even though the driver
   came back. *)
let psmouse_hotplug_window_scene _rng ~corrupted:_ =
  Trial.Between
    (once (fun () ->
         let kt = Runtime.kernel_tracker () in
         let addr = Xpc.Addr.alloc ~size:32 in
         let h = Xpc.Objtracker.issue kt ~addr ~type_id:"psmouse_serio" in
         Driver_core.eject "psmouse";
         (* unbinding revokes the instance's capabilities *)
         Xpc.Objtracker.remove_by_handle kt ~handle:h;
         Rig.ok "psmouse-reinsmod"
           (Driver_core.insmod "psmouse" ~mode:Driver_env.Decaf);
         resolve_or_fault ~driver:"psmouse" ~type_id:"psmouse_serio" h))

(* Flood the deferred-call queue while the card is suspended — the
   window where nothing drains it. *)
let ens_pm_window_scene _rng ~corrupted:_ =
  Trial.Suspended (once (fun () -> flood_posts ~context:"ens1371_stats" 50))

(* --- generic attacks for the drivers without a shared-object layer --- *)

let forged_for driver type_id ~corrupted:_ () =
  resolve_or_fault ~driver ~type_id 0x3dad_b0b0

let stale_for driver type_id ~corrupted:_ () =
  let kt = Runtime.kernel_tracker () in
  let addr = Xpc.Addr.alloc ~size:32 in
  let h = Xpc.Objtracker.issue kt ~addr ~type_id in
  Xpc.Objtracker.remove_by_handle kt ~handle:h;
  resolve_or_fault ~driver ~type_id h

let cross_type_for driver ty_a ty_b ~corrupted:_ () =
  let kt = Runtime.kernel_tracker () in
  let addr = Xpc.Addr.alloc ~size:32 in
  let _ = Xpc.Objtracker.issue kt ~addr ~type_id:ty_a in
  let h_b = Xpc.Objtracker.issue kt ~addr ~type_id:ty_b in
  resolve_or_fault ~driver ~type_id:ty_a h_b

let flood_for context ~corrupted:_ () = flood_posts ~context 50

(* --- the trial matrix --- *)

let cases () =
  [
    (* 8139too *)
    { c_driver = "8139too"; c_attack = "none (baseline)"; c_expected = "clean";
      c_scene = rtl_scene (fun ~corrupted:_ _ -> ()) };
    { c_driver = "8139too"; c_attack = "fuzzed msg_enable";
      c_expected = "recovered";
      c_scene = (fun rng -> rtl_scene (rtl_fuzz rng) rng) };
    { c_driver = "8139too"; c_attack = "write to read-only mc_filter";
      c_expected = "recovered"; c_scene = rtl_scene rtl_readonly_write };
    { c_driver = "8139too"; c_attack = "forged handle";
      c_expected = "recovered";
      c_scene = (fun rng -> rtl_scene (rtl_forged_handle rng) rng) };
    { c_driver = "8139too"; c_attack = "stale handle (revoked)";
      c_expected = "recovered"; c_scene = rtl_scene rtl_stale_handle };
    { c_driver = "8139too"; c_attack = "forged ring slots";
      c_expected = "dropped";
      c_scene = (fun rng -> rtl_scene (rtl_ring_forged rng) rng) };
    { c_driver = "8139too"; c_attack = "forged delta ack";
      c_expected = "recovered"; c_scene = rtl_scene rtl_forged_ack };
    (* e1000 *)
    { c_driver = "e1000"; c_attack = "none (baseline)"; c_expected = "clean";
      c_scene = e1000_scene (fun ~corrupted:_ _ -> ()) };
    { c_driver = "e1000"; c_attack = "fuzzed msg_enable+flags";
      c_expected = "recovered";
      c_scene = (fun rng -> e1000_scene (e1000_fuzz rng) rng) };
    { c_driver = "e1000"; c_attack = "write to read-only mtu";
      c_expected = "recovered"; c_scene = e1000_scene e1000_readonly_write };
    { c_driver = "e1000"; c_attack = "oversized inbound payload (6KB)";
      c_expected = "recovered"; c_scene = e1000_scene e1000_oversized };
    { c_driver = "e1000"; c_attack = "forged handle";
      c_expected = "recovered";
      c_scene = (fun rng -> e1000_scene (e1000_forged_handle rng) rng) };
    { c_driver = "e1000"; c_attack = "stale handle (revoked)";
      c_expected = "recovered"; c_scene = e1000_scene e1000_stale_handle };
    { c_driver = "e1000"; c_attack = "cross-type handle (tx ring as adapter)";
      c_expected = "recovered"; c_scene = e1000_scene e1000_cross_type };
    { c_driver = "e1000"; c_attack = "forged delta ack (beyond issued)";
      c_expected = "recovered"; c_scene = e1000_scene e1000_forged_ack };
    { c_driver = "e1000"; c_attack = "persistent fuzzer (every restart)";
      c_expected = "degraded";
      c_scene = (fun rng -> e1000_scene ~persistent:true (e1000_fuzz rng) rng) };
    { c_driver = "e1000"; c_attack = "deferred-call queue flood";
      c_expected = "dropped"; c_scene = e1000_scene e1000_flood };
    { c_driver = "e1000"; c_attack = "forged ring slots";
      c_expected = "dropped";
      c_scene = (fun rng -> e1000_scene (e1000_ring_forged rng) rng) };
    { c_driver = "e1000"; c_attack = "ring overflow flood";
      c_expected = "dropped"; c_scene = e1000_scene e1000_ring_flood };
    (* ens1371 *)
    { c_driver = "ens1371"; c_attack = "forged handle";
      c_expected = "recovered";
      c_scene = scene (forged_for "ens1371" "ens1371_card") };
    { c_driver = "ens1371"; c_attack = "stale handle (revoked)";
      c_expected = "recovered";
      c_scene = scene (stale_for "ens1371" "ens1371_card") };
    { c_driver = "ens1371"; c_attack = "deferred-call queue flood";
      c_expected = "dropped";
      c_scene = scene (flood_for "ens1371_stats") };
    (* uhci-hcd *)
    { c_driver = "uhci-hcd"; c_attack = "forged handle";
      c_expected = "recovered";
      c_scene = scene (forged_for "uhci-hcd" "uhci_qh") };
    { c_driver = "uhci-hcd"; c_attack = "cross-type handle (td as qh)";
      c_expected = "recovered";
      c_scene = scene (cross_type_for "uhci-hcd" "uhci_qh" "uhci_td") };
    { c_driver = "uhci-hcd"; c_attack = "stale handle (revoked)";
      c_expected = "recovered";
      c_scene = scene (stale_for "uhci-hcd" "uhci_qh") };
    (* psmouse *)
    { c_driver = "psmouse"; c_attack = "forged handle";
      c_expected = "recovered";
      c_scene = scene (forged_for "psmouse" "psmouse_serio") };
    { c_driver = "psmouse"; c_attack = "stale handle (revoked)";
      c_expected = "recovered";
      c_scene = scene (stale_for "psmouse" "psmouse_serio") };
    { c_driver = "psmouse"; c_attack = "deferred-call queue flood";
      c_expected = "dropped";
      c_scene = scene (flood_for "psmouse_status") };
    (* hostile hotplug / PM windows *)
    { c_driver = "e1000"; c_attack = "forged handle in suspend window";
      c_expected = "recovered"; c_scene = e1000_pm_window_scene };
    { c_driver = "psmouse"; c_attack = "handle replay across eject/replug";
      c_expected = "recovered"; c_scene = psmouse_hotplug_window_scene };
    { c_driver = "ens1371"; c_attack = "queue flood while suspended";
      c_expected = "dropped"; c_scene = ens_pm_window_scene };
  ]

let drivers_covered trials =
  List.sort_uniq compare (List.map (fun t -> t.driver) trials)

let run ?(seed = 0xbadd) () =
  let trials =
    List.mapi (fun i c -> run_case ~seed:(seed + i) c) (cases ())
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 trials in
  {
    seed;
    trials;
    total_rejections = sum (fun t -> t.rejections);
    total_dropped = sum (fun t -> t.dropped);
    total_restarts = sum (fun t -> t.restarts);
    total_corrupted = sum (fun t -> t.corrupted);
    total_kernel_bugs = sum (fun t -> t.kernel_bugs);
  }

(* Acceptance: the boundary-hardening claim, machine-checkable. *)
let check r =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.total_kernel_bugs <> 0 then
    fail "%d attack(s) panicked the kernel or escaped the supervisor"
      r.total_kernel_bugs
  else if r.total_corrupted <> 0 then
    fail "%d kernel object(s) absorbed writes from a rejected image"
      r.total_corrupted
  else if List.length r.trials < 25 then
    fail "only %d trials (want >= 25)" (List.length r.trials)
  else if
    drivers_covered r.trials
    <> [ "8139too"; "e1000"; "ens1371"; "psmouse"; "uhci-hcd" ]
  then
    fail "campaign did not cover all five drivers: %s"
      (String.concat ", " (drivers_covered r.trials))
  else if r.total_rejections = 0 then fail "no attack was ever rejected"
  else if r.total_dropped = 0 then
    fail "queue floods were never absorbed by drop+count"
  else if r.total_restarts = 0 then
    fail "no attack ever cost the attacker a restart"
  else
    match List.find_opt (fun t -> t.outcome <> t.expected) r.trials with
    | Some t ->
        fail "%s / %s: expected %s, got %s" t.driver t.attack t.expected
          t.outcome
    | None -> Ok ()

let render r =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Malicious-driver campaign (seed 0x%x): %d trials on 5 drivers\n" r.seed
    (List.length r.trials);
  add "%-9s %-38s %4s %4s %4s %4s  %-10s\n" "Driver" "Attack" "Rej" "Drop"
    "Rst" "Corr" "Outcome";
  List.iter
    (fun t ->
      add "%-9s %-38s %4d %4d %4d %4d  %-10s%s\n" t.driver t.attack
        t.rejections t.dropped t.restarts t.corrupted t.outcome
        (if t.outcome = t.expected then ""
         else " (expected " ^ t.expected ^ ")"))
    r.trials;
  add
    "Totals: rejections=%d dropped=%d restarts=%d corrupted=%d kernel-bugs=%d\n"
    r.total_rejections r.total_dropped r.total_restarts r.total_corrupted
    r.total_kernel_bugs;
  (match check r with
  | Ok () ->
      add
        "Acceptance: OK (every attack rejected or absorbed; 0 panics, 0 corrupted kernel objects)\n"
  | Error m -> add "Acceptance: FAILED — %s\n" m);
  Buffer.contents buf
