(* Sized like an MSI vector space rather than a legacy PIC: a fleet run
   binds hundreds of PCI functions, each with its own interrupt line. *)
let nr_irqs = 1024
let retry_ns = 500

type line = {
  mutable handler : (string * (unit -> unit)) option;
  mutable disable_depth : int;
  mutable pending : bool;
  mutable delivered : int;
  mutable queued : bool;
      (* in the blocked-line backlog: only the drain and a boot clear
         it, so [free_irq] leaves it set and a re-requested line is
         never queued twice *)
  mutable born : int;
      (* birth stamp of the oldest undelivered assertion, -1 when none:
         re-assertions while pending coalesce onto it, so the recorded
         raise-to-entry latency covers the full masked window, not the
         last re-raise *)
}

let fresh_line () =
  {
    handler = None;
    disable_depth = 0;
    pending = false;
    delivered = 0;
    queued = false;
    born = -1;
  }

let lines = Array.init nr_irqs (fun _ -> fresh_line ())
let traces = Array.init nr_irqs (fun n -> Ktrace.Irq_line n)
let latency = Latency.path "irq"
let spurious_count = ref 0

let check n =
  if n < 0 || n >= nr_irqs then Panic.bug "irq %d out of range" n;
  lines.(n)

let request_irq n ~name handler =
  let l = check n in
  Ktrace.note traces.(n) Ktrace.Write;
  (match l.handler with
  | Some (owner, _) -> Panic.bug "irq %d already claimed by %s" n owner
  | None -> ());
  l.handler <- Some (name, handler)

let free_irq n =
  let l = check n in
  Ktrace.note traces.(n) Ktrace.Write;
  l.handler <- None;
  l.pending <- false;
  l.born <- -1

let claimed () =
  let owners = ref [] in
  for n = nr_irqs - 1 downto 0 do
    match lines.(n).handler with
    | Some (owner, _) -> owners := (n, owner) :: !owners
    | None -> ()
  done;
  !owners

let cpu_can_take_irq () = not (Sched.irqs_masked () || Sched.in_interrupt ())

(* Run [f] in interrupt context now if the CPU allows, otherwise retry
   from a clock event until it does. *)
let rec run_at_high_priority f =
  if cpu_can_take_irq () then begin
    Sched.enter_interrupt ();
    Clock.consume Cost.current.irq_dispatch_ns;
    (match f () with
    | () -> Sched.exit_interrupt ()
    | exception e ->
        Sched.exit_interrupt ();
        raise e)
  end
  else ignore (Clock.after retry_ns (fun () -> run_at_high_priority f))

(* Lines that asserted while the CPU could not take an interrupt, in
   arrival order: a ring of [nr_irqs] slots, enough because [queued]
   admits each line once. They wait silently — like an interrupt
   controller holding lines high — and are delivered back-to-back the
   moment a delivery window opens. A window opens only when the CPU
   leaves interrupt context or unmasks, and the [Sched] irq-window hook
   runs on both, so no timer has to look for one. A convoy of N pending
   devices costs N deliveries. *)
let backlog = Array.make nr_irqs 0
let backlog_head = ref 0
let backlog_len = ref 0

let rec try_deliver n =
  let l = lines.(n) in
  if l.pending && l.disable_depth = 0 then
    if cpu_can_take_irq () then begin
      l.pending <- false;
      match l.handler with
      | Some (_, handler) ->
          l.delivered <- l.delivered + 1;
          Ktrace.note traces.(n) Ktrace.Wait;
          Sched.enter_interrupt ();
          Clock.consume Cost.current.irq_dispatch_ns;
          (* handler entry: the raise-to-entry timeline includes the
             dispatch cost and any masked/backlogged wait *)
          if l.born >= 0 then begin
            Latency.observe_at latency (Int.max 0 (Clock.now () - l.born));
            l.born <- -1
          end;
          (match handler () with
          | () -> Sched.exit_interrupt ()
          | exception e ->
              Sched.exit_interrupt ();
              raise e);
          (* The device may have re-asserted the line meanwhile. *)
          try_deliver n
      | None -> incr spurious_count
    end
    else if not l.queued then begin
      if !backlog_len = nr_irqs then Panic.bug "irq backlog overflow";
      l.queued <- true;
      backlog.((!backlog_head + !backlog_len) mod nr_irqs) <- n;
      incr backlog_len
    end

and drain_backlog () =
  if !backlog_len > 0 && cpu_can_take_irq () then begin
    let n = backlog.(!backlog_head) in
    backlog_head := (!backlog_head + 1) mod nr_irqs;
    decr backlog_len;
    lines.(n).queued <- false;
    try_deliver n;
    drain_backlog ()
  end

let () = Sched.set_irq_window_hook drain_backlog

let raise_irq n =
  let l = check n in
  Ktrace.note traces.(n) Ktrace.Signal;
  match l.handler with
  | None -> incr spurious_count
  | Some _ ->
      if l.born < 0 then l.born <- Clock.now ();
      l.pending <- true;
      try_deliver n

let disable_irq n =
  let l = check n in
  Ktrace.note traces.(n) Ktrace.Write;
  l.disable_depth <- l.disable_depth + 1

let enable_irq n =
  let l = check n in
  if l.disable_depth = 0 then Panic.bug "enable_irq %d: not disabled" n;
  Ktrace.note traces.(n) Ktrace.Write;
  l.disable_depth <- l.disable_depth - 1;
  if l.disable_depth = 0 then try_deliver n

let delivered n = (check n).delivered
let spurious () = !spurious_count

(* Power-on state, written in place: [lines] never leaves this module,
   so a boot allocates no line record. *)
let reset () =
  Array.iter
    (fun l ->
      l.handler <- None;
      l.disable_depth <- 0;
      l.pending <- false;
      l.delivered <- 0;
      l.queued <- false;
      l.born <- -1)
    lines;
  backlog_head := 0;
  backlog_len := 0;
  spurious_count := 0;
  (* a test may have replaced the hook; a boot restores this one *)
  Sched.set_irq_window_hook drain_backlog
