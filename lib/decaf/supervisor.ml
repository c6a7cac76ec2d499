module K = Decaf_kernel

type state = Running | Restarting | Disabled

type stats = { detected : int; recovered : int; degraded : int; restarts : int }

type t = {
  name : string;
  restart_budget : int;
  restart_delay_ns : int;
  mutable state : state;
  mutable detected : int;
  mutable recovered : int;
  mutable degraded : int;
  mutable restarts : int;
}

let create ?(restart_budget = 3) ?(restart_delay_ns = 100_000_000) ~name () =
  {
    name;
    restart_budget;
    restart_delay_ns;
    state = Running;
    detected = 0;
    recovered = 0;
    degraded = 0;
    restarts = 0;
  }

let state t = t.state

let stats t : stats =
  {
    detected = t.detected;
    recovered = t.recovered;
    degraded = t.degraded;
    restarts = t.restarts;
  }

let restart_budget t = t.restart_budget
let restarts_left t = if t.state = Disabled then 0 else max 0 (t.restart_budget - t.restarts)

(* Record an absorbed fault: damage was injected but the driver's own
   error handling (retries, checked exceptions, robust interrupt paths)
   swallowed it without needing a restart. Counted as detected-and-
   recovered so the campaign invariant recovered + degraded = detected
   holds for every injection's episode. *)
let note_tolerated t =
  t.detected <- t.detected + 1;
  t.recovered <- t.recovered + 1

let run t ?(on_restart = Runtime.restart) body =
  if t.state = Disabled then None
  else begin
    t.state <- Running;
    (* [episodes] counts the faults caught so far in this run; each is
       resolved as recovered when a later attempt succeeds, or as
       degraded when the budget runs out. *)
    let rec attempt episodes =
      match body () with
      | v ->
          if episodes > 0 then begin
            t.recovered <- t.recovered + episodes;
            K.Klog.printk K.Klog.Info
              "supervisor %s: recovered after %d restart(s)" t.name episodes
          end;
          t.state <- Running;
          Some v
      | exception (K.Panic.Kernel_bug _ as e) ->
          (* a genuine kernel bug is not a decaf fault: let it surface *)
          raise e
      | exception e ->
          let msg = Printexc.to_string e in
          t.detected <- t.detected + 1;
          K.Klog.printk K.Klog.Warning "supervisor %s: decaf fault: %s" t.name
            msg;
          if episodes >= t.restart_budget then begin
            t.degraded <- t.degraded + episodes + 1;
            t.state <- Disabled;
            K.Klog.printk K.Klog.Err
              "supervisor %s: restart budget (%d) exhausted; driver \
               disabled, kernel alive"
              t.name t.restart_budget;
            None
          end
          else begin
            t.state <- Restarting;
            t.restarts <- t.restarts + 1;
            (* let in-flight hardware events drain while the runtime is
               down, so the retry starts from quiet state *)
            if t.restart_delay_ns > 0 then K.Sched.sleep_ns t.restart_delay_ns;
            on_restart ();
            attempt (episodes + 1)
          end
    in
    attempt 0
  end
