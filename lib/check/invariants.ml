(* Global invariants checked on every explored schedule.

   Three families:

   - an online lock-acquisition-order recorder fed from the
     {!Decaf_kernel.Ktrace} event stream of the real spinlocks, mutexes
     and combolocks; its edge graph accumulates across every schedule
     of an episode (an AB/BA cycle is a violation even if no single
     schedule deadlocks);
   - end-of-schedule leak checks: deferred notifications, ring slots and
     in-flight crossings must all be gone once the machine quiesces;
   - the supervisor audit: with no fault plan active, a supervisor that
     detected anything means an exception crossed the XPC boundary that
     exploration should have surfaced directly.

   A deferred notification delivered after its binding's unbind needs no
   monitor here: the closed {!Decaf_drivers.Driver_env} panics, and the
   explorer reports the panic. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc

type violation = { v_kind : string; v_detail : string }

let vf v_kind fmt = Printf.ksprintf (fun v_detail -> { v_kind; v_detail }) fmt

let violation_to_string v = Printf.sprintf "%s: %s" v.v_kind v.v_detail

(* --- lock-order graph (per episode, across schedules) --- *)

type graph = {
  edges : (string * string, unit) Hashtbl.t;
  mutable cycle_reported : bool;
}

let new_graph () = { edges = Hashtbl.create 32; cycle_reported = false }

let note_edge g outer inner =
  if outer <> inner && not (Hashtbl.mem g.edges (outer, inner)) then
    Hashtbl.replace g.edges (outer, inner) ()

let edges g =
  Hashtbl.fold (fun e () acc -> e :: acc) g.edges []
  |> List.sort compare

(* Any cycle in the accumulated acquisition-order graph, as the lock
   sequence of one witness cycle. *)
let find_cycle g =
  let succs n =
    Hashtbl.fold
      (fun (a, b) () acc -> if a = n then b :: acc else acc)
      g.edges []
  in
  let nodes =
    Hashtbl.fold
      (fun (a, b) () acc ->
        let acc = if List.mem a acc then acc else a :: acc in
        if List.mem b acc then acc else b :: acc)
      g.edges []
  in
  let exception Found of string list in
  let rec dfs path visiting n =
    if List.mem n path then raise (Found (List.rev (n :: path)))
    else if List.mem n !visiting then ()
    else begin
      visiting := n :: !visiting;
      List.iter (dfs (n :: path) visiting) (succs n)
    end
  in
  match List.iter (fun n -> dfs [] (ref []) n) (List.sort compare nodes) with
  | () -> None
  | exception Found cyc -> Some cyc

let cycle_violation g =
  if g.cycle_reported then None
  else
    match find_cycle g with
    | None -> None
    | Some cyc ->
        g.cycle_reported <- true;
        Some
          (vf "lock-order" "acquisition-order cycle: %s"
             (String.concat " -> " cyc))

(* --- execution monitor (one per schedule) --- *)

(* The locks each thread holds, in acquisition order, each tagged with
   the context it was taken in: a handler's locks do not nest inside the
   preempted thread's. *)
type held = { h_lock : string; h_irq : bool (* acquired in irq context *) }
type t = { g : graph; locks : (int, held list) Hashtbl.t }

let monitor g = { g; locks = Hashtbl.create 16 }

let held_of m tid =
  match Hashtbl.find_opt m.locks tid with Some l -> l | None -> []

let on_acquire m name =
  let tid = K.Sched.current_tid () in
  let irq = K.Sched.in_interrupt () in
  let held = held_of m tid in
  List.iter
    (fun h -> if h.h_irq = irq then note_edge m.g h.h_lock name)
    held;
  Hashtbl.replace m.locks tid ({ h_lock = name; h_irq = irq } :: held)

let on_release m name =
  let tid = K.Sched.current_tid () in
  let rec drop = function
    | [] -> []
    | h :: rest -> if h.h_lock = name then rest else h :: drop rest
  in
  Hashtbl.replace m.locks tid (drop (held_of m tid))

let on_event m (o : K.Ktrace.obj) (a : K.Ktrace.access) =
  match (o, a) with
  | K.Ktrace.Lock s, K.Ktrace.Acquire -> on_acquire m (Trace.strip_stamp s)
  | K.Ktrace.Lock s, K.Ktrace.Release -> on_release m (Trace.strip_stamp s)
  | _ -> ()

(* --- end-of-schedule checks --- *)

let leak_violations () =
  let out = ref [] in
  let add v = out := v :: !out in
  let bp = Xpc.Batch.pending () in
  if bp > 0 then
    add (vf "leak" "%d deferred notification(s) still queued at quiescence" bp);
  let rp = Xpc.Ring.pending () in
  if rp > 0 then
    add (vf "leak" "%d ring slot(s) still occupied at quiescence" rp);
  List.iter
    (fun d ->
      let n = Xpc.Channel.in_flight d in
      if n > 0 then
        add
          (vf "leak" "%d crossing(s) still in flight into %s at quiescence" n
             (Xpc.Domain.to_string d)))
    [ Xpc.Domain.Kernel; Xpc.Domain.Driver_lib; Xpc.Domain.Decaf_driver ];
  List.rev !out

(* With no fault plan installed, nothing should have needed recovering:
   a nonzero detected count means an exception escaped into a supervised
   region where exploration could not see it directly. *)
let supervisor_violations () =
  List.filter_map
    (fun (s : Decaf_drivers.Driver_core.snapshot) ->
      match s.s_supervisor with
      | Some st when st.Decaf_runtime.Supervisor.detected > 0 ->
          Some
            (vf "supervisor" "%s: supervisor detected %d fault(s) with no fault plan active"
               s.s_binding st.Decaf_runtime.Supervisor.detected)
      | _ -> None)
    (Decaf_drivers.Driver_core.snapshots ())
