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
  r_target : Domain.t;
  r_guard : Guard.t;
  r_resolve : int -> (int, string) result;
  r_handler : record -> unit;
  slots : record option array;  (** fixed layout, preallocated *)
  born : int array;
      (** per-slot write stamp, read at drain for the slot-write to
          drain-consume timeline; dead entries are ignored once the slot
          empties *)
  mutable head : int;  (** next write index *)
  mutable occupancy : int;
  mutable draining : bool;
  s : stats;
}

let default_watermark = 64

(* Ring slots carry coalescable telemetry (stats generations, link
   flaps), so the latency bound is an order looser than the batch
   queue's 10 ms: the doorbell is meant to amortize to ~zero crossings
   per event, not to chase tail latency. *)
let default_flush_interval_ns = 100_000_000
let default_depth = 256
let enabled_flag = ref false
let watermark = ref default_watermark
let flush_interval_ns = ref default_flush_interval_ns
let depth_default = ref default_depth
let rings : (string, t) Hashtbl.t = Hashtbl.create 8
let all () = Hashtbl.fold (fun _ r acc -> r :: acc) rings []

(* Doorbell workers and timer belong to one machine lifetime, exactly
   like the batch flush infrastructure: forgotten on boot, tagged with
   the dispatch pool width, lazily recreated when that width changes. *)
let infra : (int * K.Workqueue.t array * K.Timer.t) option ref = ref None

let rr = ref 0

let queue_job wqs job =
  let n = Array.length wqs in
  rr := (!rr + 1) mod n;
  K.Workqueue.queue_work wqs.(!rr) job

(* How long a doorbell worker backs off when the target domain is
   saturated (a user-level runtime services one XPC at a time). *)
let busy_retry_ns = 1_000_000
let tail r = (r.head - r.occupancy + Array.length r.slots) mod Array.length r.slots

(* Validate one slot kernel-side before believing it: the capability
   handle must resolve in the tracker (forged handles are how a hostile
   driver names kernel memory it was never given), then the plan-derived
   guard checks the remaining fields. Both layers count their own
   rejections; the discarded slot additionally counts as a boundary drop
   so status totals reconcile. *)
let slot_valid r rec_ =
  match r.r_resolve rec_.handle with
  | Error _ -> false
  | Ok _ -> (
      match
        ( Guard.int_field r.r_guard ~field:"kind" rec_.kind,
          Guard.int_field r.r_guard ~field:"arg0" rec_.arg0,
          Guard.int_field r.r_guard ~field:"arg1" rec_.arg1 )
      with
      | _, _, _ -> true
      | exception Boundary.Boundary_violation _ -> false)

let rec get_infra () =
  let size = min (Dispatch.workers ()) 4 in
  match !infra with
  | Some (s', wqs, timer) when s' = size -> (wqs, timer)
  | _ ->
      let wqs =
        Array.init size (fun i ->
            K.Workqueue.create ~name:(Printf.sprintf "xpc-ring/%d" i))
      in
      let timer =
        K.Timer.create ~name:"xpc-ring-doorbell" (fun () ->
            (* interrupt context: defer the doorbell to process
               context, where the crossing may block *)
            List.iter
              (fun r -> queue_job wqs (fun () -> deferred_drain r))
              (all ()))
      in
      infra := Some (size, wqs, timer);
      (wqs, timer)

and deferred_drain r =
  if Channel.in_flight r.r_target >= Dispatch.workers () then begin
    let _, timer = get_infra () in
    if not (K.Timer.pending timer) then K.Timer.mod_timer_in timer busy_retry_ns
  end
  else drain r

(* One doorbell = ONE crossing with a zero-byte payload: the drain loop
   runs inside the call, reading slots out of the (conceptually shared)
   ring, so N produced records pay N slot reads plus a single crossing
   — no per-record marshaling at all. Draining is idempotent by
   construction (the fault model fires before the body runs), so a
   failed doorbell leaves every slot in place for the timer retry. *)
and drain r =
  if r.occupancy > 0 && not r.draining then begin
    (* The doorbell crossing may block; a drain reached from irq context
       or an irq-window hook must go through the workqueue deferral, and
       this names the ring if one ever slips through. *)
    K.Sched.assert_may_block ("ring " ^ r.r_name ^ " doorbell drain");
    K.Ktrace.note (K.Ktrace.Queue ("ring:" ^ r.r_name)) K.Ktrace.Wait;
    r.draining <- true;
    Fun.protect
      ~finally:(fun () -> r.draining <- false)
      (fun () ->
        match
          Channel.call ~target:r.r_target ~payload_bytes:0 ~idempotent:true
            ~context:"ring.doorbell" (fun () ->
              Boundary.scoped r.r_name (fun () ->
                  while r.occupancy > 0 do
                    let i = tail r in
                    let rec_ = Option.get r.slots.(i) in
                    r.slots.(i) <- None;
                    r.occupancy <- r.occupancy - 1;
                    let c = K.Cost.current.ring_slot_read_ns in
                    K.Clock.consume c
                    (* decaf-lint: consume-ok, slot age tracked as xpc.ring *);
                    Dispatch.note c;
                    K.Latency.observe_path "xpc.ring"
                      (max 0 (K.Clock.now () - r.born.(i)));
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
            totals.doorbells <- totals.doorbells + 1
        | exception Channel.Xpc_failure _ ->
            r.s.requeues <- r.s.requeues + 1;
            totals.requeues <- totals.requeues + 1;
            (* reprogram even a pending flush timer: the slots are aging
               in place, so the retry must come at the short interval,
               not at the full latency bound *)
            let _, timer = get_infra () in
            K.Timer.mod_timer_in timer busy_retry_ns)
  end

let create ~name ~target ~guard ~resolve ~handler ?depth () =
  let depth = max 1 (Option.value ~default:!depth_default depth) in
  let r =
    {
      r_name = name;
      r_target = target;
      r_guard = guard;
      r_resolve = resolve;
      r_handler = handler;
      slots = Array.make depth None;
      born = Array.make depth 0;
      head = 0;
      occupancy = 0;
      draining = false;
      s = mk_stats ();
    }
  in
  Hashtbl.replace rings name r;
  r

let produce r rec_ =
  let c = K.Cost.current.ring_slot_write_ns in
  K.Clock.consume c (* decaf-lint: consume-ok, birth stamped per slot below *);
  Dispatch.note c;
  if r.occupancy >= Array.length r.slots then begin
    (* Bounded depth: producing can run in irq context, so the overflow
       cannot raise — the record is dropped and counted, and the caller
       falls back to the delta-sync path. *)
    r.s.overflow <- r.s.overflow + 1;
    totals.overflow <- totals.overflow + 1;
    Boundary.scoped r.r_name Boundary.note_dropped;
    K.Klog.printk K.Klog.Warning
      "xpc-ring: %s full at depth %d, dropping record kind %d" r.r_name
      (Array.length r.slots) rec_.kind;
    false
  end
  else begin
    K.Ktrace.note (K.Ktrace.Queue ("ring:" ^ r.r_name)) K.Ktrace.Signal;
    r.slots.(r.head) <- Some rec_;
    r.born.(r.head) <- K.Clock.now ();
    r.head <- (r.head + 1) mod Array.length r.slots;
    r.occupancy <- r.occupancy + 1;
    r.s.produced <- r.s.produced + 1;
    totals.produced <- totals.produced + 1;
    if r.occupancy > r.s.high_water then begin
      r.s.high_water <- r.occupancy;
      if r.occupancy > totals.high_water then
        totals.high_water <- r.occupancy
    end;
    (let wqs, timer = get_infra () in
     if not r.draining then
       if r.occupancy >= !watermark then
         queue_job wqs (fun () -> deferred_drain r)
       else if not (K.Timer.pending timer) then
         K.Timer.mod_timer_in timer !flush_interval_ns);
    true
  end

let drain_all () =
  List.iter drain (all ());
  match !infra with
  | Some (_, wqs, _) -> Array.iter K.Workqueue.flush wqs
  | None -> ()

let destroy r =
  (* Surprise removal: no consumer will ever drain again, so whatever
     is still occupied is dropped with count — never silently. *)
  K.Ktrace.note (K.Ktrace.Queue ("ring:" ^ r.r_name)) K.Ktrace.Wait;
  Boundary.scoped r.r_name (fun () ->
      while r.occupancy > 0 do
        let i = tail r in
        r.slots.(i) <- None;
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

let snapshot () =
  {
    produced = totals.produced;
    consumed = totals.consumed;
    doorbells = totals.doorbells;
    overflow = totals.overflow;
    rejected = totals.rejected;
    discarded = totals.discarded;
    requeues = totals.requeues;
    high_water = totals.high_water;
  }

let set_enabled v = enabled_flag := v
let enabled () = !enabled_flag

let configure ?watermark:w ?flush_interval_ns:i ?depth:d () =
  Option.iter (fun v -> watermark := max 1 v) w;
  Option.iter (fun v -> flush_interval_ns := max 1 v) i;
  Option.iter (fun v -> depth_default := max 1 v) d

let () =
  K.Boot.on_reset @@ fun () ->
  Hashtbl.reset rings;
  infra := None;
  rr := 0;
  enabled_flag := false;
  watermark := default_watermark;
  flush_interval_ns := default_flush_interval_ns;
  depth_default := default_depth;
  totals.produced <- 0;
  totals.consumed <- 0;
  totals.doorbells <- 0;
  totals.overflow <- 0;
  totals.rejected <- 0;
  totals.discarded <- 0;
  totals.requeues <- 0;
  totals.high_water <- 0
