module K = Decaf_kernel

type record = { kind : int; handle : int; arg0 : int; arg1 : int }

type stats = {
  mutable produced : int;
  mutable consumed : int;
  mutable doorbells : int;
  mutable overflow : int;
  mutable rejected : int;
  mutable discarded : int;
  mutable requeues : int;
  mutable high_water : int;
}

let mk_stats () =
  {
    produced = 0;
    consumed = 0;
    doorbells = 0;
    overflow = 0;
    rejected = 0;
    discarded = 0;
    requeues = 0;
    high_water = 0;
  }

(* Machine-wide totals, bumped alongside each ring's own counters. *)
let totals = mk_stats ()

type t = {
  r_name : string;
  r_trace : K.Ktrace.obj;  (** "ring:<name>", built once *)
  r_target : Domain.t;
  r_guard : Guard.t;
  r_resolve : int -> (int, string) result;
  r_handler : record -> unit;
  mutable slots : record array;
      (** fixed layout, [vacant] where empty; grown on demand by doubling
          up to [depth], so a ring that never carries a record costs no
          storage *)
  mutable born : int array;
      (** per-slot write stamp, read at drain for the slot-write to
          drain-consume timeline; dead entries are ignored once the slot
          empties *)
  mutable head : int;  (** next write index *)
  mutable occupancy : int;
  mutable draining : bool;
  s : stats;
}

(* A slot's guarded fields, named here only: the handle is resolved
   through the tracker, not guarded. *)
let kind_f = "kind"
let arg0_f = "arg0"
let arg1_f = "arg1"

(* Everything read out of a slot is inbound, so every field is Write. *)
let table ~type_id ~kinds ~arg0 ~arg1 =
  let row name rule =
    { Codec.name; access = Marshal_plan.Write; kind = Codec.Int; rule }
  in
  Codec.make ~type_id
    [ row kind_f (Guard.Enum kinds); row arg0_f arg0; row arg1_f arg1 ]

let forge table ~handle fields =
  let value name =
    let d = List.find (fun d -> d.Codec.name = name) (Codec.descs table) in
    let v = List.assoc_opt name fields in
    match Option.value v ~default:(Codec.in_envelope d) with
    | Codec.I v -> v
    | Codec.B _ | Codec.W _ -> invalid_arg ("Ring.forge: " ^ name)
  in
  { kind = value kind_f; handle; arg0 = value arg0_f; arg1 = value arg1_f }

let depth = 256
let vacant = { kind = 0; handle = 0; arg0 = 0; arg1 = 0 }
let latency = K.Latency.path "xpc.ring"
let rings : (string, t) Hashtbl.t = Hashtbl.create 8
let all () = Hashtbl.fold (fun _ r acc -> r :: acc) rings []

(* Storage is a power of two no larger than [depth], so wrapping is a
   mask. *)
let wrap r i = i land (Array.length r.slots - 1)
let tail r = wrap r (r.head - r.occupancy)

(* Double the storage (4 slots the first time), moving the occupied
   slots to the front in order. Only [produce] grows, below [depth]. *)
let grow r =
  let n = Int.max 4 (2 * Array.length r.slots) in
  let slots = Array.make n vacant and born = Array.make n 0 in
  for k = 0 to r.occupancy - 1 do
    let i = wrap r (r.head - r.occupancy + k) in
    slots.(k) <- r.slots.(i);
    born.(k) <- r.born.(i)
  done;
  r.slots <- slots;
  r.born <- born;
  r.head <- r.occupancy

(* Validate one slot kernel-side before believing it: the capability
   handle must resolve in the tracker (forged handles are how a hostile
   driver names kernel memory it was never given), then the plan-derived
   guard checks the remaining fields in table order, stopping at the
   first bad one. Both layers count their own rejections; the discarded
   slot additionally counts as a boundary drop so status totals
   reconcile. *)
let slot_valid r rec_ =
  match r.r_resolve rec_.handle with
  | Error _ -> false
  | Ok _ -> (
      match
        let _ = Guard.int_field r.r_guard ~field:kind_f rec_.kind in
        let _ = Guard.int_field r.r_guard ~field:arg0_f rec_.arg0 in
        Guard.int_field r.r_guard ~field:arg1_f rec_.arg1
      with
      | _ -> true
      | exception Boundary.Boundary_violation _ -> false)

(* One doorbell = ONE crossing with a zero-byte payload: the drain loop
   runs inside the call, reading slots out of the (conceptually shared)
   ring, so N produced records pay N slot reads plus a single crossing
   — no per-record marshaling at all. Draining is idempotent by
   construction (the fault model fires before the body runs), so a
   failed doorbell leaves every slot in place for the timer retry. *)
let flush _ r =
  if r.occupancy = 0 || r.draining then true
  else begin
    (* The doorbell crossing may block; a drain reached from irq context
       or an irq-window hook must go through the workqueue deferral, and
       this names the ring if one ever slips through. *)
    K.Sched.assert_may_block ("ring " ^ r.r_name ^ " doorbell drain");
    K.Ktrace.note r.r_trace K.Ktrace.Wait;
    r.draining <- true;
    Fun.protect
      ~finally:(fun () -> r.draining <- false)
      (fun () ->
        match
          Channel.call ~target:r.r_target ~payload_bytes:0 ~reply_bytes:0
            ~idempotent:true ~context:"ring.doorbell" (fun () ->
              Boundary.scoped r.r_name (fun () ->
                  while r.occupancy > 0 do
                    let i = tail r in
                    let rec_ = r.slots.(i) and born = r.born.(i) in
                    r.slots.(i) <- vacant;
                    r.occupancy <- r.occupancy - 1;
                    Dispatch.charge K.Cost.current.ring_slot_read_ns;
                    K.Latency.observe_at latency
                      (Int.max 0 (K.Clock.now () - born));
                    if slot_valid r rec_ then begin
                      r.r_handler rec_;
                      r.s.consumed <- r.s.consumed + 1;
                      totals.consumed <- totals.consumed + 1
                    end
                    else begin
                      r.s.rejected <- r.s.rejected + 1;
                      totals.rejected <- totals.rejected + 1;
                      Boundary.note_dropped ()
                    end
                  done))
        with
        | () ->
            r.s.doorbells <- r.s.doorbells + 1;
            totals.doorbells <- totals.doorbells + 1;
            true
        | exception Channel.Xpc_failure _ ->
            r.s.requeues <- r.s.requeues + 1;
            totals.requeues <- totals.requeues + 1;
            false)
  end

(* Rings carry coalescable telemetry (stats generations, link flaps),
   so the latency bound is an order looser than the batch queue's
   10 ms: the doorbell is meant to amortize to ~zero crossings per
   event, not to chase tail latency. *)
let core =
  Doorbell.create ~name:"xpc-ring" ~watermark:64 ~interval_ns:100_000_000
    ~keys:all ~target:(fun r -> r.r_target) ~flush

let drain r = Doorbell.drain core r

let create ~name ~target ~guard ~resolve ~handler () =
  let r =
    {
      r_name = name;
      r_trace = K.Ktrace.Queue ("ring:" ^ name);
      r_target = target;
      r_guard = guard;
      r_resolve = resolve;
      r_handler = handler;
      slots = [||];
      born = [||];
      head = 0;
      occupancy = 0;
      draining = false;
      s = mk_stats ();
    }
  in
  Hashtbl.replace rings name r;
  r

let produce r rec_ =
  Dispatch.charge K.Cost.current.ring_slot_write_ns;
  if r.occupancy >= depth then begin
    (* Bounded depth: producing can run in irq context, so the overflow
       cannot raise — the record is dropped and counted, and the caller
       falls back to the delta-sync path. *)
    r.s.overflow <- r.s.overflow + 1;
    totals.overflow <- totals.overflow + 1;
    Boundary.scoped r.r_name Boundary.note_dropped;
    K.Klog.printk K.Klog.Warning
      "xpc-ring: %s full at depth %d, dropping record kind %d" r.r_name depth
      rec_.kind;
    false
  end
  else begin
    K.Ktrace.note r.r_trace K.Ktrace.Signal;
    if r.occupancy = Array.length r.slots then grow r;
    r.slots.(r.head) <- rec_;
    r.born.(r.head) <- K.Clock.now ();
    r.head <- wrap r (r.head + 1);
    r.occupancy <- r.occupancy + 1;
    r.s.produced <- r.s.produced + 1;
    totals.produced <- totals.produced + 1;
    if r.occupancy > r.s.high_water then begin
      r.s.high_water <- r.occupancy;
      if r.occupancy > totals.high_water then
        totals.high_water <- r.occupancy
    end;
    (* a drain in progress loops until the ring is empty, so it takes
       this slot too; no second doorbell *)
    if not r.draining then Doorbell.trigger core r ~fill:r.occupancy;
    true
  end

let drain_all () = Doorbell.drain_all core

let destroy r =
  (* Surprise removal: no consumer will ever drain again, so whatever
     is still occupied is dropped with count — never silently. *)
  K.Ktrace.note r.r_trace K.Ktrace.Wait;
  Boundary.scoped r.r_name (fun () ->
      while r.occupancy > 0 do
        let i = tail r in
        r.slots.(i) <- vacant;
        r.occupancy <- r.occupancy - 1;
        r.s.discarded <- r.s.discarded + 1;
        totals.discarded <- totals.discarded + 1;
        Boundary.note_dropped ()
      done);
  (match Hashtbl.find_opt rings r.r_name with
  | Some r' when r' == r -> Hashtbl.remove rings r.r_name
  | _ -> ())

let find ~name = Hashtbl.find_opt rings name
let name r = r.r_name
let occupancy r = r.occupancy
let pending () = Hashtbl.fold (fun _ r acc -> acc + r.occupancy) rings 0
let stats_of r = r.s
let stats () = totals
let snapshot () = { totals with produced = totals.produced }

let set_enabled v = Doorbell.set_enabled core v
let enabled () = Doorbell.enabled core

let () =
  K.Boot.on_reset @@ fun () ->
  Hashtbl.reset rings;
  totals.produced <- 0;
  totals.consumed <- 0;
  totals.doorbells <- 0;
  totals.overflow <- 0;
  totals.rejected <- 0;
  totals.discarded <- 0;
  totals.requeues <- 0;
  totals.high_water <- 0
