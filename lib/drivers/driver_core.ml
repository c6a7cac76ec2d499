module K = Decaf_kernel
module Xpc = Decaf_xpc
module Supervisor = Decaf_runtime.Supervisor
module Errors = Decaf_runtime.Errors

type lifecycle =
  | Unbound
  | Probed
  | Running
  | Suspended
  | Recovering
  | Disabled
  | Removed

exception
  Illegal_transition of {
    driver : string;
    from_ : lifecycle;
    to_ : lifecycle;
  }

let lifecycle_name = function
  | Unbound -> "unbound"
  | Probed -> "probed"
  | Running -> "running"
  | Suspended -> "suspended"
  | Recovering -> "recovering"
  | Disabled -> "disabled"
  | Removed -> "removed"

let () =
  Printexc.register_printer (function
    | Illegal_transition { driver; from_; to_ } ->
        Some
          (Printf.sprintf "Driver_core.Illegal_transition(%s: %s -> %s)"
             driver (lifecycle_name from_) (lifecycle_name to_))
    | _ -> None)

module type DRIVER = sig
  type t

  val name : string
  val bus : Decaf_kernel.Hotplug.bus
  val ids : (int * int) list

  (* [dev = Some id] pins the probe to that bus device (a PCI slot);
     [None] claims any matching unbound device. One call per binding. *)
  val probe : Driver_env.t -> dev:string option -> (t, int) result
  val remove : t -> unit
  val suspend : t -> unit
  val resume : t -> unit
  val owns : t -> string -> bool
  val init_latency_ns : t -> int
end

type packed = Pack : (module DRIVER with type t = 'a) -> packed
type bound = B : (module DRIVER with type t = 'a) * 'a -> bound

type snapshot = {
  s_driver : string;  (** bare driver name, shared by every instance *)
  s_binding : string;  (** binding id: [s_driver] or ["name#k"] *)
  s_instance : int;
  s_state : lifecycle;
  s_mode : Driver_env.mode option;
  s_crossings : int;
  s_wire_bytes : int;
  s_notifies : int;
  s_deferred_syncs : int;
  s_rejections : int;
  s_dropped : int;
  s_ring_occupancy : int;
  s_ring_high_water : int;
  s_ring_doorbells : int;
  s_ring_drops : int;
  s_supervisor : Supervisor.stats option;
  s_restarts_left : int;
  s_init_latency_ns : int;
}

(* One binding = one (driver, instance) pair. Instance 0 keeps the bare
   driver name as its binding id, so every pre-fleet consumer — ring
   names, boundary scopes, `insmod "e1000"` — keeps meaning "the first
   instance" unchanged; instance k > 0 is "name#k". *)
type binding = {
  drv : packed;
  b_name : string;
  b_instance : int;
  b_id : string;
  b_trace : K.Ktrace.obj;  (** "binding:<b_id>", built once *)
  b_bus : K.Hotplug.bus;
  b_ids : (int * int) list;
  b_family : family;  (** shared by every instance of the driver *)
  mutable b_dev : string option;
      (** bus device this binding is pinned to, when bound via
          {!bind_device} with an explicit device *)
  mutable state : lifecycle;
  mutable inst : bound option;
  mutable sup : Supervisor.t option;
  mutable env : Driver_env.t;
      (** made fresh at every bind: its mode and meter are the row's;
          {!never_bound} until the first *)
  mutable want : Driver_env.mode option;
      (** mode to auto-rebind with when the device is replugged *)
  mutable in_run : bool;
      (** inside {!run}: nested ops must not re-wrap supervision *)
}

(* A driver's instances, indexed by instance number: the first [size]
   slots of [members] are in use. No member below [free_from] is free
   (Unbound or Removed), so the next bind looks for a free one from
   there rather than from instance 0. *)
and family = {
  mutable members : binding array;
  mutable size : int;
  mutable free_from : int;
}

(* The env of a binding that was never bound: a zero meter, never
   counted into, and no mode to report. *)
let never_bound = Driver_env.create Native ~scope:""

(* Every binding, newest first: [List.rev] gives creation order, in
   which the hotplug handlers visit them. [by_id] indexes the same
   bindings by binding id. *)
let bindings : binding list ref = ref []
let by_id : (string, binding) Hashtbl.t = Hashtbl.create 64

(* --- lifecycle state machine --- *)

(* The [Recovering] row is deliberately permissive: the supervisor can
   catch a fault in any phase of a supervised operation, and the
   unwinding (protect-cleanup) may already have moved the binding. The
   transitions a caller can request directly — probe, suspend, resume,
   remove — are the strictly checked ones. *)
let allowed from_ to_ =
  match (from_, to_) with
  | (Unbound | Removed | Recovering), Probed -> true
  | (Probed | Suspended | Recovering), Running -> true
  | (Running | Recovering), Suspended -> true
  | (Unbound | Probed | Running | Suspended | Recovering | Removed), Recovering
    ->
      true
  | (Unbound | Probed | Running | Suspended | Recovering | Removed), Disabled
    ->
      true
  | (Probed | Running | Suspended | Recovering | Disabled), Removed -> true
  | Probed, Unbound -> true
  | _ -> false

(* A free binding can be bound again. *)
let is_free = function Unbound | Removed -> true | _ -> false

let transition b to_ =
  if not (allowed b.state to_) then
    raise (Illegal_transition { driver = b.b_id; from_ = b.state; to_ });
  (* A queue edge, not a Var: lifecycle legality is enforced right here
     by the FSM, so the exploration harness only needs the dependency
     (concurrent lifecycle ops on one binding do not commute), not a
     lockset obligation the registry's cooperative callers never had. *)
  K.Ktrace.note b.b_trace K.Ktrace.Signal;
  b.state <- to_;
  if is_free to_ then
    b.b_family.free_from <- Int.min b.b_family.free_from b.b_instance

let set_disabled b = if b.state <> Disabled then transition b Disabled

(* --- internal operations --- *)

let fresh_sup b =
  let s = Supervisor.create ~name:b.b_id () in
  b.sup <- Some s;
  s

let sup_of b = match b.sup with Some s -> s | None -> fresh_sup b

let on_restart b () =
  transition b Recovering;
  Decaf_runtime.Runtime.restart ()

(* Deliver batched notifications, then wait for crossings already
   executing in the user-level domains to return. Bounded: a crossing
   wedged past the deadline is the supervisor's problem, not ours. *)
let drain_in_flight () =
  Xpc.Batch.drain ();
  Xpc.Ring.drain_all ();
  let busy () =
    Xpc.Channel.in_flight Xpc.Domain.Decaf_driver
    + Xpc.Channel.in_flight Xpc.Domain.Driver_lib
    > 0
  in
  let deadline = K.Clock.now () + 1_000_000_000 in
  while busy () && K.Clock.now () < deadline do
    K.Sched.sleep_ns 100_000
  done

(* Transition first: bus events published during teardown (input device
   unregistering, HCD dropping out) must not re-enter removal. The env
   closes once the driver is gone, so a deferred notification that
   outlives the binding panics when it is delivered. *)
let unbind b =
  transition b Removed;
  (match b.inst with Some (B ((module D), t)) -> D.remove t | None -> ());
  b.inst <- None;
  Driver_env.close b.env

let bind b mode =
  match b.drv with
  | Pack (module D) -> (
      transition b Probed;
      let env = Driver_env.create mode ~scope:b.b_id in
      b.env <- env;
      match D.probe env ~dev:b.b_dev with
      | Ok t ->
          b.inst <- Some (B ((module D), t));
          transition b Running;
          Ok ()
      | Error rc ->
          transition b Unbound;
          Error rc
      | exception e ->
          transition b Unbound;
          raise e)

(* --- hotplug routing --- *)

let eject_binding b =
  drain_in_flight ();
  (* [drain_in_flight] blocks: a concurrent rmmod (or a second removal
     event) may have torn this binding down while we slept, and
     unbinding again would drive the FSM Removed -> Removed. Re-check
     after every suspension point before acting on the stale check. *)
  match b.state with
  | Probed | Running | Suspended | Recovering | Disabled -> unbind b
  | Unbound | Removed -> ()

let handle_removed bus id =
  List.iter
    (fun b ->
      match (b.state, b.inst) with
      | (Probed | Running | Suspended), Some (B ((module D), t))
        when D.bus = bus && D.owns t id ->
          K.Klog.printk K.Klog.Info "driver_core: %s: device %s removed"
            b.b_id id;
          eject_binding b
      | _ -> ())
    (List.rev !bindings)

let handle_added bus ~id ~vendor ~device =
  List.iter
    (fun b ->
      if
        (b.state = Unbound || b.state = Removed)
        && b.want <> None && b.b_bus = bus
        && List.exists (fun (v, d) -> v = vendor && d = device) b.b_ids
        (* a binding pinned to a specific bus device only rebinds when
           that very device returns; unpinned bindings take any match *)
        && (match b.b_dev with None -> true | Some d -> d = id)
      then begin
        let mode = Option.get b.want in
        (* -ENODEV, -ENXIO: nothing here for this binding (an older one
           took the device), which is no failure, as in [Pci.try_bind] *)
        let warn = function
          | -19 | -6 -> ()
          | rc ->
              K.Klog.printk K.Klog.Warning
                "driver_core: %s: hotplug re-probe failed (errno %d)" b.b_id rc
        in
        if b.in_run then begin
          (* already under a supervised episode: probe directly so a
             fault is retried as part of the whole body *)
          match bind b mode with Ok () -> () | Error rc -> warn rc
        end
        else
          match
            Supervisor.run (sup_of b) ~on_restart:(on_restart b) (fun () ->
                bind b mode)
          with
          | Some (Ok ()) -> ()
          | Some (Error rc) -> warn rc
          | None -> set_disabled b
      end)
    (List.rev !bindings)

let hotplug_handler = function
  | K.Hotplug.Device_removed { bus; id } -> handle_removed bus id
  | K.Hotplug.Device_added { bus; id; vendor; device } ->
      handle_added bus ~id ~vendor ~device

(* --- registry bookkeeping, reset on every kernel boot --- *)

(* Hotplug clears its subscribers in the kernel's part of the boot, which
   runs before every hook. *)
let () =
  K.Boot.on_reset @@ fun () ->
  bindings := [];
  Hashtbl.reset by_id;
  K.Hotplug.subscribe hotplug_handler

let add_member fam b =
  if fam.size = Array.length fam.members then begin
    let grown = Array.make (Int.max 4 (2 * fam.size)) b in
    Array.blit fam.members 0 grown 0 fam.size;
    fam.members <- grown
  end;
  fam.members.(fam.size) <- b;
  fam.size <- fam.size + 1;
  bindings := b :: !bindings;
  Hashtbl.replace by_id b.b_id b

let register (Pack (module D) as p) =
  (* re-registering a driver discards its whole instance family *)
  let gone, kept = List.partition (fun o -> o.b_name = D.name) !bindings in
  List.iter (fun o -> Hashtbl.remove by_id o.b_id) gone;
  bindings := kept;
  let b =
    {
      drv = p;
      b_name = D.name;
      b_instance = 0;
      b_id = D.name;
      b_trace = K.Ktrace.Queue ("binding:" ^ D.name);
      b_bus = D.bus;
      b_ids = D.ids;
      b_family = { members = [||]; size = 0; free_from = 0 };
      b_dev = None;
      state = Unbound;
      inst = None;
      sup = None;
      env = never_bound;
      want = None;
      in_run = false;
    }
  in
  add_member b.b_family b

let registered () =
  List.filter_map
    (fun b -> if b.b_instance = 0 then Some b.b_name else None)
    (List.rev !bindings)

(* Binding ids resolve exactly: the bare driver name IS instance 0's id,
   so every pre-fleet call site addressing "e1000" still lands on the
   first instance, and "e1000#3" addresses the fourth. *)
let find name =
  match Hashtbl.find by_id name with
  | b -> b
  | exception Not_found -> invalid_arg ("driver_core: unknown driver " ^ name)

let instances_of name =
  let fam = (find name).b_family in
  List.init fam.size (fun i -> fam.members.(i).b_id)

let state name = (find name).state
let supervisor name = (find name).sup

(* --- public lifecycle operations --- *)

let insmod_binding b ~mode =
  (match b.state with
  | Unbound | Removed -> ()
  | s -> raise (Illegal_transition { driver = b.b_id; from_ = s; to_ = Probed }));
  b.want <- Some mode;
  if b.in_run then bind b mode
  else
    let sup = fresh_sup b in
    match Supervisor.run sup ~on_restart:(on_restart b) (fun () -> bind b mode) with
    | Some (Ok ()) -> Ok ()
    | Some (Error rc) -> Error rc
    | None ->
        set_disabled b;
        Error (-Errors.eio)

let insmod name ~mode = insmod_binding (find name) ~mode

let rec free_member fam i =
  if i >= fam.size then None
  else
    let b = fam.members.(i) in
    if is_free b.state then Some b else free_member fam (i + 1)

(* N-way binding: reuse the lowest free (Unbound/Removed) member of the
   driver's instance family or mint the next instance, pin it to [dev]
   when given, and run the ordinary supervised insmod on that binding.
   The returned binding id is the handle for every other registry
   call. *)
let bind_device name ?dev ~mode () =
  let proto = find name in
  let fam = proto.b_family in
  let b =
    match free_member fam fam.free_from with
    | Some b ->
        fam.free_from <- b.b_instance;
        b
    | None ->
        fam.free_from <- fam.size;
        let inst = fam.size in
        let id = Printf.sprintf "%s#%d" proto.b_name inst in
        let b =
          {
            proto with
            b_instance = inst;
            b_id = id;
            b_trace = K.Ktrace.Queue ("binding:" ^ id);
            b_dev = None;
            state = Unbound;
            inst = None;
            sup = None;
            env = never_bound;
            want = None;
            in_run = false;
          }
        in
        add_member fam b;
        b
  in
  b.b_dev <- dev;
  match insmod_binding b ~mode with
  | Ok () -> Ok b.b_id
  | Error rc -> Error rc

let rmmod name =
  let b = find name in
  (match b.state with
  | Running | Suspended | Disabled -> ()
  | s -> raise (Illegal_transition { driver = name; from_ = s; to_ = Removed }));
  (* deliver outstanding deferred notifications and ring slots before
     teardown so no deferred call outlives its driver *)
  if not !K.Mutants.drop_unbind_drain then begin
    Xpc.Batch.drain ();
    Xpc.Ring.drain_all ()
  end;
  (* the drains block on flush workers: re-check that a concurrent
     ejection did not already unbind while we waited *)
  (match b.state with
  | Running | Suspended | Disabled -> unbind b
  | _ -> ());
  b.want <- None

let eject name =
  let b = find name in
  match b.state with Running | Suspended -> eject_binding b | _ -> ()

let suspend name =
  let b = find name in
  if b.state <> Running then
    raise (Illegal_transition { driver = name; from_ = b.state; to_ = Suspended });
  match b.inst with
  | None -> Error (-Errors.enodev)
  | Some (B ((module D), t)) -> (
      let op () =
        D.suspend t;
        (* flush batched notifies — and with them any pending dirty
           deltas — and drain the shared ring while the device is still
           powered, so no slot survives into the suspended state *)
        Xpc.Batch.drain ();
        Xpc.Ring.drain_all ()
      in
      if b.in_run then begin
        op ();
        transition b Suspended;
        Ok ()
      end
      else
        match Supervisor.run (sup_of b) ~on_restart:(on_restart b) op with
        | Some () ->
            transition b Suspended;
            Ok ()
        | None ->
            set_disabled b;
            Error (-Errors.eio))

let resume name =
  let b = find name in
  if b.state <> Suspended then
    raise (Illegal_transition { driver = name; from_ = b.state; to_ = Running });
  match b.inst with
  | None -> Error (-Errors.enodev)
  | Some (B ((module D), t)) -> (
      let op () = D.resume t in
      if b.in_run then begin
        op ();
        transition b Running;
        Ok ()
      end
      else
        match Supervisor.run (sup_of b) ~on_restart:(on_restart b) op with
        | Some () ->
            transition b Running;
            Ok ()
        | None ->
            set_disabled b;
            Error (-Errors.eio))

(* --- whole-episode supervision (the fault campaign's shape) --- *)

let run name ~mode body =
  let b = find name in
  (match b.state with
  | Unbound | Removed -> ()
  | s -> raise (Illegal_transition { driver = name; from_ = s; to_ = Probed }));
  let sup = fresh_sup b in
  b.want <- Some mode;
  b.in_run <- true;
  let attempt () =
    (match bind b mode with
    | Ok () -> ()
    | Error rc -> Errors.throw ~driver:name ~errno:(-rc) "probe");
    Errors.protect
      ~cleanup:(fun () ->
        (* fault unwinding: tear the driver down so the supervisor's
           retry starts from a clean bus and module table *)
        match b.state with Running | Suspended -> unbind b | _ -> ())
      (fun () ->
        let v = body () in
        (match b.state with
        | Running | Suspended ->
            Xpc.Batch.drain ();
            Xpc.Ring.drain_all ();
            unbind b
        | _ -> ());
        v)
  in
  Fun.protect
    ~finally:(fun () ->
      b.in_run <- false;
      b.want <- None)
    (fun () ->
      match Supervisor.run sup ~on_restart:(on_restart b) attempt with
      | Some v -> Some v
      | None ->
          set_disabled b;
          None)

(* --- observability --- *)

let snapshot_of b =
  let init_ns =
    match b.inst with
    | Some (B ((module D), t)) -> D.init_latency_ns t
    | None -> 0
  in
  let m = b.env.Driver_env.meter in
  (* Ring counters for this binding, if it owns a shared ring (rings are
     registered under the binding's name). Zeros otherwise. *)
  let r_occ, r_hw, r_bell, r_drop =
    match Xpc.Ring.find ~name:b.b_id with
    | Some r ->
        let s = Xpc.Ring.stats_of r in
        ( Xpc.Ring.occupancy r,
          s.Xpc.Ring.high_water,
          s.Xpc.Ring.doorbells,
          s.Xpc.Ring.overflow + s.Xpc.Ring.discarded )
    | None -> (0, 0, 0, 0)
  in
  {
    s_driver = b.b_name;
    s_binding = b.b_id;
    s_instance = b.b_instance;
    s_state = b.state;
    s_mode =
      (if b.env == never_bound then None else Some b.env.Driver_env.mode);
    s_crossings = m.Driver_env.upcalls + m.downcalls;
    s_wire_bytes = m.wire_bytes;
    s_notifies = m.notifies;
    s_deferred_syncs = m.syncs;
    s_rejections = Xpc.Boundary.rejected_for b.b_id;
    s_dropped = Xpc.Boundary.dropped_for b.b_id;
    s_ring_occupancy = r_occ;
    s_ring_high_water = r_hw;
    s_ring_doorbells = r_bell;
    s_ring_drops = r_drop;
    s_supervisor = Option.map Supervisor.stats b.sup;
    s_restarts_left =
      (match b.sup with Some s -> Supervisor.restarts_left s | None -> 0);
    s_init_latency_ns = init_ns;
  }

let snapshot name = snapshot_of (find name)

let snapshots () =
  (* stable (driver, instance) order: a 256-instance fleet renders as a
     contiguous, deterministically ordered block per driver *)
  let ordered =
    List.stable_sort
      (fun a b ->
        match compare a.b_name b.b_name with
        | 0 -> compare a.b_instance b.b_instance
        | c -> c)
      !bindings
  in
  List.map snapshot_of ordered

let render_status snaps =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%-11s %-10s %-7s %9s %10s %8s %7s %4s %4s %9s %5s %5s %4s %4s %4s %7s\n"
    "Driver" "State" "Mode" "Crossings" "WireBytes" "Notifies" "Synced" "Rej"
    "Drop" "Ring(o/hw)" "Bells" "RDrop" "Det" "Rec" "Deg" "Budget";
  List.iter
    (fun s ->
      let stat f =
        match s.s_supervisor with Some st -> f st | None -> 0
      in
      add
        "%-11s %-10s %-7s %9d %10d %8d %7d %4d %4d %9s %5d %5d %4d %4d %4d %7d\n"
        s.s_binding
        (lifecycle_name s.s_state)
        (match s.s_mode with
        | Some m -> Driver_env.mode_name m
        | None -> "-")
        s.s_crossings s.s_wire_bytes s.s_notifies s.s_deferred_syncs
        s.s_rejections s.s_dropped
        (Printf.sprintf "%d/%d" s.s_ring_occupancy s.s_ring_high_water)
        s.s_ring_doorbells s.s_ring_drops
        (stat (fun st -> st.Supervisor.detected))
        (stat (fun st -> st.Supervisor.recovered))
        (stat (fun st -> st.Supervisor.degraded))
        s.s_restarts_left)
    snaps;
  (* aggregate row: at fleet scale the per-instance block is a wall of
     detail; the totals line is what a human reads first *)
  if List.length snaps > 1 then begin
    let sum f = List.fold_left (fun acc s -> acc + f s) 0 snaps in
    add
      "%-11s %-10s %-7s %9d %10d %8d %7d %4d %4d %9s %5d %5d %4d %4d %4d %7s\n"
      "TOTAL"
      (Printf.sprintf "%d bound"
         (List.length
            (List.filter
               (fun s ->
                 match s.s_state with
                 | Running | Suspended | Probed -> true
                 | _ -> false)
               snaps)))
      "-"
      (sum (fun s -> s.s_crossings))
      (sum (fun s -> s.s_wire_bytes))
      (sum (fun s -> s.s_notifies))
      (sum (fun s -> s.s_deferred_syncs))
      (sum (fun s -> s.s_rejections))
      (sum (fun s -> s.s_dropped))
      (Printf.sprintf "%d/%d"
         (sum (fun s -> s.s_ring_occupancy))
         (sum (fun s -> s.s_ring_high_water)))
      (sum (fun s -> s.s_ring_doorbells))
      (sum (fun s -> s.s_ring_drops))
      (sum (fun s -> match s.s_supervisor with
         | Some st -> st.Supervisor.detected | None -> 0))
      (sum (fun s -> match s.s_supervisor with
         | Some st -> st.Supervisor.recovered | None -> 0))
      (sum (fun s -> match s.s_supervisor with
         | Some st -> st.Supervisor.degraded | None -> 0))
      "-"
  end;
  Buffer.contents buf
