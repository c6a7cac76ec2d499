(* Malicious-driver campaign: the adversarial counterpart of
   Faultcampaign.  Where the fault campaign models a failing DEVICE,
   this one models a compromised USER-LEVEL DRIVER — hostile field
   values, forged and stale capability handles, cross-type handle
   confusion at aliased addresses, replayed delta acknowledgements,
   scribbled ring slots, unbounded deferred-call queues, and attacks
   timed into suspend/resume and hotplug windows.  The figure of merit
   is the boundary-hardening claim: every attack is rejected at the XPC
   boundary and either absorbed (drop + count) or routed to the
   recovery supervisor as an ordinary driver fault.  Nothing panics the
   kernel, and no kernel object absorbs an unvalidated write.

   The attacks are generated, not picked: every Guard violation of a
   crossing struct's codec table and of its ring's slot table, and
   every handle class, becomes a trial, and each trial declares the
   rejections it must cost. *)

module Xpc = Decaf_xpc
module Codec = Xpc.Codec
module Dirty = Xpc.Marshal_plan.Dirty
module Errors = Decaf_runtime.Errors
module Supervisor = Decaf_runtime.Supervisor
module Runtime = Decaf_runtime.Runtime
open Decaf_drivers

type trial = {
  driver : string;
  attack : string;
  targets : string list;
  expected : string;
  expected_rejections : int;
  outcome : string;
  rejections : int;  (* boundary violations detected during the trial *)
  dropped : int;  (* inbound work discarded without a fault *)
  restarts : int;
  corrupted : int;  (* kernel objects an attack changed *)
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

(* --- the drivers under attack ---

   What the generator knows of a driver: its binding scope and the
   deferred notification it really posts.  A driver with a tracked
   crossing object adds its struct's Shared_struct operations (codec
   table included), the active kernel object, the ring's slot table and
   the tracker type embedded at the object's address (the inner/outer
   aliasing of §3.1.2).  The other drivers issue no handle, so no
   handle names anything of theirs: a forged, stale or cross-type
   handle cannot even be expressed against them, and they face only
   the baseline and the queue floods. *)

type shared =
  | Shared : {
      ops : (module Shared_struct.S with type kernel = 'k);
      active : unit -> 'k;
      ring : Codec.t;
      alias : string;
    }
      -> shared

type driver = { name : string; context : string; shared : shared option }

let e1000 =
  let module O = E1000_objects in
  let active () = E1000_drv.(kernel_adapter (Option.get (active ()))) in
  {
    name = "e1000";
    context = "e1000_stats";
    shared =
      Some
        (Shared
           {
             ops = (module O);
             active;
             ring = O.ring_table;
             alias = Xpc.Univ.key_name O.ring_key;
           });
  }

let rtl8139 =
  let module O = Rtl8139_objects in
  let active () = Rtl8139_drv.(kernel_nic (Option.get (active ()))) in
  {
    name = "8139too";
    context = "rtl8139_stats";
    shared =
      Some
        (Shared
           {
             ops = (module O);
             active;
             ring = O.ring_table;
             alias = "rtl8139_stats";
           });
  }

let plain name context = { name; context; shared = None }
let ens1371 = plain "ens1371" "ens1371_pcm_ptr"
let uhci = plain "uhci-hcd" "uhci_complete"
let psmouse = plain "psmouse" "psmouse_sync"
let drivers = [ rtl8139; e1000; ens1371; uhci; psmouse ]

(* --- the attacked object ---

   The victim is the active kernel copy of a driver's crossing struct,
   and a handle reaches it inside an image the kernel glue unmarshals.
   A driver without one offers nothing to aim at: its trials touch no
   object. *)

type victim = {
  addr : int;
  handle : Xpc.Objtracker.handle;
  present : Xpc.Objtracker.handle -> (string * Codec.value) list -> unit;
      (** hand the kernel a reference carrying these field values *)
  ack : int -> unit;  (** acknowledge the kernel copy's dirty marks *)
  fields : Codec.obj option;  (** the kernel copy an attack must not change *)
}

let kernel_tracker = Runtime.kernel_tracker

let victim d =
  match d.shared with
  | Some (Shared { ops; active; _ }) ->
      let module S = (val ops) in
      let k = active () in
      let handle = S.handle k in
      {
        addr = Result.get_ok (S.resolve handle);
        handle;
        present =
          (fun handle values ->
            S.unmarshal_at_kernel (Codec.payload S.codec ~handle values) k);
        ack = (fun upto -> S.ack_user_view k ~upto);
        fields = Some (S.fields k);
      }
  | None ->
      {
        addr = 0;
        handle = 0;
        present = (fun _ _ -> ());
        ack = ignore;
        fields = None;
      }

(* "Corrupted" means an attack changed the kernel copy — a field value
   or its dirty marks.  Validate-everything-then-apply makes this
   impossible; the campaign measures it rather than assumes it. *)
let checked corrupted v attack =
  let state () =
    Option.map
      (fun f ->
        let d = Codec.dirty f in
        (Codec.values f, Dirty.pending d, Dirty.issued d))
      v.fields
  in
  let pre = state () in
  Fun.protect ~finally:(fun () -> if state () <> pre then incr corrupted) attack

(* --- attack constructors: each takes the trial's seeded generator and
   the victim --- *)

let forged_handle rng = 0x3bad_0000 + Random.State.int rng 0xfff
let field values _ v = v.present v.handle values
let forged rng v = v.present (forged_handle rng) []

(* A revoked capability replayed. *)
let stale _ v =
  Xpc.Objtracker.remove_by_handle (kernel_tracker ()) ~handle:v.handle;
  v.present v.handle []

(* A real capability, for the type embedded at the victim's address. *)
let cross_type type_id _ v =
  let kt = kernel_tracker () in
  v.present (Xpc.Objtracker.issue kt ~addr:v.addr ~type_id) []

let forged_ack _ v =
  v.ack (Dirty.issued (Codec.dirty (Option.get v.fields)) + 1)

(* Every word array as long as the inbound byte bound: refused on its
   size before a field decodes. *)
let oversized codec _ v =
  let words = Array.make (Xpc.Guard.limits.max_inbound_bytes / 4) 0 in
  v.present v.handle
    (List.filter_map
       (fun d ->
         match d.Codec.kind with
         | Codec.Words _ -> Some (d.Codec.name, Codec.W words)
         | Codec.Int | Codec.Bool -> None)
       (Codec.descs codec))

(* The slot ring is mapped in both domains, so a compromised driver can
   scribble any record into it and ring the doorbell.  The drain
   validates every slot kernel-side and discards what fails, drop +
   count, without faulting the crossing. *)
let produce d records =
  match Xpc.Ring.find ~name:d.name with
  | None -> Errors.throw ~driver:d.name ~errno:19 "shared ring not mapped"
  | Some ring ->
      List.iter (fun r -> ignore (Xpc.Ring.produce ring r)) records;
      ring

let ring_slots d table forgeries rng v =
  let forge = Xpc.Ring.forge table in
  let own = List.map (fun fs -> forge ~handle:v.handle fs) forgeries in
  Xpc.Ring.drain (produce d (own @ [ forge ~handle:(forged_handle rng) [] ]))

(* Well-formed records pumped in past the ring's fixed depth: the
   excess is dropped and counted, nothing blocks or faults. *)
let ring_flood d table _ v =
  let honest = Xpc.Ring.forge table ~handle:v.handle [] in
  ignore (produce d (List.init 300 (fun _ -> honest)))

(* Deferred calls posted with the queue bound tightened and never a
   yield: the overflow is dropped and counted, not faulted, because
   posting is legal from interrupt context. *)
let queue_flood context _ _ =
  Xpc.Guard.configure ~max_batch_queue:8 ();
  for _ = 1 to 50 do
    Xpc.Batch.post ~target:Xpc.Domain.Decaf_driver ~payload_bytes:64 ~context
      (fun () -> ())
  done

(* --- trials --- *)

type case = {
  c_driver : driver;
  c_attack : string;
  c_targets : string list;  (** table fields the forged values sit in *)
  c_expected : string;
  c_rejections : int;  (** per firing *)
  c_window : (unit -> unit) -> Trial.body;
  c_persistent : bool;
      (** re-fire on every restart, exhausting the budget; otherwise the
          supervisor's restart re-runs the body without the attack and
          the episode converges to a healthy driver *)
  c_fire : Random.State.t -> victim -> unit;
}

let case ?(targets = []) ?(window = fun f -> Trial.After f)
    ?(persistent = false) d attack expected rejections fire =
  {
    c_driver = d;
    c_attack = attack;
    c_targets = targets;
    c_expected = expected;
    c_rejections = rejections;
    c_window = window;
    c_persistent = persistent;
    c_fire = fire;
  }

(* Every Guard violation of a table: its label, field and values. *)
let violations_of table =
  List.concat_map
    (fun (d : Codec.desc) ->
      let name = d.Codec.name in
      List.map
        (fun (label, v) -> (name ^ " " ^ label, name, [ (name, v) ]))
        (Codec.violations d))
    (Codec.descs table)

let cases_of d =
  let baseline = case d "none (baseline)" "clean" 0 (fun _ _ -> ()) in
  let flood =
    case d "deferred-call queue flood" "dropped" 0 (queue_flood d.context)
  in
  match d.shared with
  | None -> [ baseline; flood ]
  | Some (Shared { ops; ring; alias; _ }) ->
      let module S = (val ops) in
      let handles =
        [
          case d "forged handle" "recovered" 1 forged;
          case d "stale handle (revoked)" "recovered" 1 stale;
          case d "cross-type handle" "recovered" 1 (cross_type alias);
        ]
      in
      let fields =
        List.map
          (fun (label, name, values) ->
            case ~targets:[ name ] d label "recovered" 1 (field values))
          (violations_of S.codec)
      in
      let slots = violations_of ring in
      (baseline :: fields)
      @ (case d "oversized inbound image" "recovered" 1 (oversized S.codec)
        :: handles)
      @ [
          case d "forged delta ack" "recovered" 1 forged_ack;
          case
            ~targets:(List.map (fun (_, name, _) -> name) slots)
            d "forged ring slots" "dropped"
            (List.length slots + 1)
            (ring_slots d ring (List.map (fun (_, _, values) -> values) slots));
          case d "ring overflow flood" "dropped" 0 (ring_flood d ring);
          flood;
        ]

(* The timed rows: generated attacks fired on every restart, or into
   hotplug and PM windows. *)
let timed () =
  let suspended f = Trial.Suspended f in
  let _, name, values = List.hd (violations_of E1000_objects.codec) in
  [
    case ~targets:[ name ] ~persistent:true e1000
      "persistent fuzzer (every restart)" "degraded" 1 (field values);
    case ~window:suspended e1000 "forged handle in suspend window"
      "recovered" 1 forged;
    case ~window:suspended ens1371 "queue flood while suspended" "dropped" 0
      (queue_flood ens1371.context);
  ]

let cases () = List.concat_map cases_of drivers @ timed ()

let run_case ~seed c =
  let d = c.c_driver in
  let corrupted = ref 0 and armed = ref true in
  let rng = Random.State.make [| seed |] in
  let fire () =
    if !armed then begin
      armed := c.c_persistent;
      let v = victim d in
      checked corrupted v (fun () ->
          Xpc.Boundary.scoped d.name (fun () -> c.c_fire rng v))
    end
  in
  let r = Trial.run ~seed d.name (c.c_window fire) in
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
  let firings =
    if c.c_persistent then Supervisor.restart_budget sup + 1 else 1
  in
  {
    driver = d.name;
    attack = c.c_attack;
    targets = c.c_targets;
    expected = c.c_expected;
    expected_rejections = c.c_rejections * firings;
    outcome;
    rejections = totals.Xpc.Boundary.rejected;
    dropped = totals.Xpc.Boundary.dropped;
    restarts = st.Supervisor.restarts;
    corrupted = !corrupted;
    kernel_bugs = r.Trial.kernel_bugs;
  }

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

let as_declared t =
  t.outcome = t.expected && t.rejections = t.expected_rejections

(* Acceptance: the boundary-hardening claim, machine-checkable. *)
let check r =
  let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
  if r.total_kernel_bugs <> 0 then
    fail "%d attack(s) panicked the kernel or escaped the supervisor"
      r.total_kernel_bugs
  else if r.total_corrupted <> 0 then
    fail "%d kernel object(s) absorbed a hostile write" r.total_corrupted
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
    match List.find_opt (fun t -> not (as_declared t)) r.trials with
    | Some t ->
        fail "%s / %s: expected %s with %d rejection(s), got %s with %d"
          t.driver t.attack t.expected t.expected_rejections t.outcome
          t.rejections
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
        (if as_declared t then ""
         else
           Printf.sprintf " (expected %s, %d rejection(s))" t.expected
             t.expected_rejections))
    r.trials;
  add
    "Totals: rejections=%d dropped=%d restarts=%d corrupted=%d kernel-bugs=%d\n"
    r.total_rejections r.total_dropped r.total_restarts r.total_corrupted
    r.total_kernel_bugs;
  (match check r with
  | Ok () ->
      add
        "Acceptance: OK (every attack rejected or absorbed as declared; 0 \
         panics, 0 corrupted kernel objects)\n"
  | Error m -> add "Acceptance: FAILED — %s\n" m);
  Buffer.contents buf
