open Effect
open Effect.Deep

type thread = { tid : int; name : string }

exception Would_block_in_atomic of string

type _ Effect.t +=
  | Yield : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let runq : (thread * (unit -> unit)) Queue.t = Queue.create ()
let cpu = { tid = 0; name = "<cpu>" }
let cur = ref cpu
let next_tid = ref 1
let irq_depth = ref 0
let spins = ref 0

let current_name () = !cur.name
let current_tid () = !cur.tid
let in_interrupt () = !irq_depth > 0
let enter_interrupt () = incr irq_depth
let irq_mask = ref 0

(* Invoked whenever the CPU becomes able to take an interrupt again
   (leaves interrupt context, restores the irq mask): the interrupt
   layer registers a drain of its pending-line backlog here, so blocked
   lines wait silently instead of polling. *)
let irq_window_hook = ref (fun () -> ())
let set_irq_window_hook f = irq_window_hook := f

(* The hook runs synchronously inside whatever thread reopened the irq
   window — possibly deep in a Clock.consume preemption — so a hook that
   blocks would suspend an unrelated thread with interrupt lines still
   backlogged. Tracked as a depth (hook delivery re-enters through
   nested exit_interrupt) and enforced by [assert_may_block]. *)
let window_hook_depth = ref 0

let run_window_hook () =
  incr window_hook_depth;
  match !irq_window_hook () with
  | () -> decr window_hook_depth
  | exception e ->
      decr window_hook_depth;
      raise e

let exit_interrupt () =
  if !irq_depth = 0 then Panic.bug "Sched.exit_interrupt: not in interrupt";
  decr irq_depth;
  if !irq_depth = 0 && !irq_mask = 0 then run_window_hook ()

let spin_depth () = !spins
let local_irq_save () = incr irq_mask

let local_irq_restore () =
  if !irq_mask = 0 then Panic.bug "Sched.local_irq_restore: not masked";
  decr irq_mask;
  if !irq_mask = 0 && !irq_depth = 0 then run_window_hook ()

let irqs_masked () = !irq_mask > 0
let spin_acquire () = incr spins

let spin_release () =
  if !spins = 0 then Panic.bug "Sched.spin_release: no spinlock held";
  decr spins

let assert_may_block what =
  if in_interrupt () then
    raise (Would_block_in_atomic (what ^ " in interrupt context"))
  else if !spins > 0 then
    raise (Would_block_in_atomic (what ^ " while holding a spinlock"))
  else if !window_hook_depth > 0 then
    raise (Would_block_in_atomic (what ^ " in irq-window hook"))

let enqueue t f = Queue.push (t, f) runq
let runnable_count () = Queue.length runq

let handler (t : thread) : (unit, unit) Effect.Deep.handler =
  {
    retc = (fun () -> ());
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Yield ->
            Some
              (fun (k : (a, unit) continuation) ->
                enqueue t (fun () -> continue k ()))
        | Suspend register ->
            Some
              (fun (k : (a, unit) continuation) ->
                let fired = ref false in
                let wake () =
                  if not !fired then begin
                    fired := true;
                    enqueue t (fun () -> continue k ())
                  end
                in
                register wake)
        | _ -> None);
  }

let spawn ?(name = "kthread") body =
  let t = { tid = !next_tid; name } in
  incr next_tid;
  enqueue t (fun () -> match_with body () (handler t));
  t

let yield () = perform Yield

let suspend ~register =
  assert_may_block "blocking";
  perform (Suspend register)

let sleep_ns ns =
  suspend ~register:(fun wake -> ignore (Clock.after ns wake))

(* --- exploration controller -------------------------------------------

   The systematic-exploration harness (Decaf_check) installs a controller
   so that every source of scheduling nondeterminism passes through one
   decision point: at each iteration of [run] the controller is shown the
   runnable threads (in queue arrival order) plus — when the event queue
   is nonempty — [Advance_clock], and returns the index of the choice to
   take. Index 0 of the FIFO snapshot is by construction the schedule an
   uncontrolled run would have taken. A negative return aborts the run
   (depth caps, sleep-set-blocked branches). *)

let thread_name t = t.name

type choice = Run_thread of thread | Advance_clock

let controller : (choice array -> int) option ref = ref None
let set_controller f = controller := Some f
let clear_controller () = controller := None

(* Remove and return the [n]th entry of the run queue, preserving the
   order of the rest. *)
let take_nth n =
  let entries = List.of_seq (Queue.to_seq runq) in
  Queue.clear runq;
  let picked = ref None in
  List.iteri
    (fun i e -> if i = n then picked := Some e else Queue.push e runq)
    entries;
  match !picked with
  | Some e -> e
  | None -> Panic.bug "Sched.take_nth: choice %d out of range" n

let dispatch (t, step) =
  let prev = !cur in
  cur := t;
  Clock.consume Cost.current.ctx_switch_ns;
  step ();
  cur := prev

let run ?until_ns () =
  let past_deadline () =
    match until_ns with None -> false | Some t -> Clock.now () >= t
  in
  let rec loop () =
    if past_deadline () then ()
    else
      match !controller with
      | None -> (
          match Queue.take_opt runq with
          | Some entry ->
              dispatch entry;
              loop ()
          | None -> if Clock.advance_to_next_event () then loop () else ())
      | Some pick ->
          let threads = Array.of_seq (Queue.to_seq runq) in
          let n = Array.length threads in
          let has_ev = Clock.has_events () in
          if n = 0 && not has_ev then ()
          else begin
            let choices =
              Array.init
                (n + if has_ev then 1 else 0)
                (fun i ->
                  if i < n then Run_thread (fst threads.(i)) else Advance_clock)
            in
            let i = pick choices in
            if i < 0 then ()
            else if i < n then begin
              dispatch (take_nth i);
              loop ()
            end
            else begin
              ignore (Clock.advance_to_next_event ());
              loop ()
            end
          end
  in
  loop ()

(* [controller] deliberately survives reset: the explorer reboots the
   world (Boot.boot -> Sched.reset) at the start of every execution and
   must keep steering across the reboot. *)
let reset () =
  Queue.clear runq;
  cur := cpu;
  irq_depth := 0;
  irq_mask := 0;
  spins := 0;
  window_hook_depth := 0;
  next_tid := 1
