open Effect
open Effect.Deep

(* A thread carries its own resume state: [k] is where it continues
   ([parked] until its first dispatch runs [body]) and [next] links it
   into the run queue, so queueing it builds nothing. *)
type thread = {
  tid : int;
  name : string;
  body : unit -> unit;
  mutable k : (unit, unit) continuation;
  mutable next : thread;
}

exception Would_block_in_atomic of string

type _ Effect.t +=
  | Yield : unit Effect.t
  | Sleep : unit Effect.t
  | Suspend : ((unit -> unit) -> unit) -> unit Effect.t

(* A continuation that nothing resumes, parked once at startup: the
   resume state of [cpu], which is never dispatched, and of a thread
   that has not run yet. *)
let parked : (unit, unit) continuation =
  let k : (unit, unit) continuation option ref = ref None in
  let effc (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option
      =
    match eff with Yield -> Some (fun c -> k := Some c) | _ -> None
  in
  match_with perform Yield { retc = ignore; exnc = raise; effc };
  Option.get !k

let rec cpu = { tid = 0; name = "<cpu>"; body = ignore; k = parked; next = cpu }
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

(* The run queue: a FIFO threaded through the threads' [next] links,
   empty when [head] is [cpu]. A thread is pushed only while it is
   neither running nor queued (by its own yield, its sleep's clock
   event or a once-only wake), so it is never queued twice. *)
let head = ref cpu
let tail = ref cpu
let queued = ref 0

let push t =
  t.next <- cpu;
  if !head == cpu then head := t else !tail.next <- t;
  tail := t;
  incr queued

let pop () =
  let t = !head in
  head := t.next;
  decr queued;
  t

let runnable_count () = !queued

(* Each thread's handler is built once, when it first runs, with the
   answers to its payload-free yield and sleep and the wakeup its sleeps
   arm the clock with: neither allocates beyond the continuation
   [perform] builds. A generic suspend builds its own once-only
   wakeup. *)
let nap = ref 0

let handler t : (unit, unit) handler =
  let wake () = push t in
  let on_yield = Some (fun k -> t.k <- k; wake ())
  and on_sleep = Some (fun k -> t.k <- k; ignore (Clock.after !nap wake)) in
  {
    retc = ignore;
    exnc = raise;
    effc =
      (fun (type a) (eff : a Effect.t) :
           ((a, unit) continuation -> unit) option ->
        match eff with
        | Yield -> on_yield
        | Sleep -> on_sleep
        | Suspend register ->
            Some
              (fun k ->
                t.k <- k;
                let fired = ref false in
                register (fun () ->
                    if not !fired then begin
                      fired := true;
                      wake ()
                    end))
        | _ -> None);
  }

(* The fiber is made by the first dispatch, not here: OCaml never frees
   the stack of a continuation that is dropped unresumed, and a reboot
   drops every queued thread. *)
let spawn ?(name = "kthread") body =
  let t = { tid = !next_tid; name; body; k = parked; next = cpu } in
  incr next_tid;
  push t;
  t

let yield () = perform Yield

let suspend ~register =
  assert_may_block "blocking";
  perform (Suspend register)

let sleep_ns ns =
  assert_may_block "blocking";
  nap := ns;
  perform Sleep

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

(* Unlink and return the [n]th queued thread, keeping the others'
   order. *)
let take_nth n =
  if n < 0 || n >= !queued then
    Panic.bug "Sched.take_nth: choice %d out of range" n
  else if n = 0 then pop ()
  else begin
    let prev = ref !head in
    for _ = 2 to n do
      prev := !prev.next
    done;
    let t = !prev.next in
    !prev.next <- t.next;
    if !tail == t then tail := !prev;
    decr queued;
    t
  end

let dispatch t =
  let prev = !cur in
  cur := t;
  Clock.consume Cost.current.ctx_switch_ns;
  if t.k == parked then match_with t.body () (handler t) else continue t.k ();
  cur := prev

let run ?until_ns () =
  let past_deadline () =
    match until_ns with None -> false | Some t -> Clock.now () >= t
  in
  let rec loop () =
    if past_deadline () then ()
    else
      match !controller with
      | None ->
          if !queued > 0 then begin
            dispatch (pop ());
            loop ()
          end
          else if Clock.advance_to_next_event () then loop ()
      | Some pick ->
          let n = !queued in
          let has_ev = Clock.has_events () in
          if n = 0 && not has_ev then ()
          else begin
            let choices = Array.make (n + Bool.to_int has_ev) Advance_clock in
            let t = ref !head in
            for i = 0 to n - 1 do
              choices.(i) <- Run_thread !t;
              t := !t.next
            done;
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
  head := cpu;
  tail := cpu;
  queued := 0;
  cur := cpu;
  irq_depth := 0;
  irq_mask := 0;
  spins := 0;
  window_hook_depth := 0;
  next_tid := 1
