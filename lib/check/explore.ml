(* decaf-check: stateless exploration of scheduling nondeterminism.

   Every execution reboots the simulated machine, runs an episode's
   setup and drives {!Decaf_kernel.Sched} through the controller hook: a
   forced decision prefix replays the path to an unexplored branch, the
   default continuation (first enabled, non-sleeping choice) finishes
   the schedule deterministically. From each completed schedule the
   explorer derives a happens-before relation (vector clocks joined
   across dependent steps, dependence taken from the {!Ktrace} access
   sets each step produced) and applies dynamic partial-order reduction:
   for every pair of concurrent dependent steps it schedules the
   reversal at the earlier step's decision node. Sleep sets carry the
   already-explored siblings down each branch and abort provably
   redundant schedules.

   A violation is reported with the full schedule that exposed it, then
   minimized: the shortest forced prefix whose default continuation
   still reproduces the same violation kind — that prefix is the
   checked-in, replayable counterexample. *)

module K = Decaf_kernel

type episode = {
  ep_name : string;
  ep_descr : string;
  ep_depth : int;  (** branching-depth bound for a full exploration *)
  ep_smoke_depth : int;  (** bound for the runtest smoke alias *)
  ep_max_execs : int;  (** hard cap on schedules per exploration *)
  ep_setup : unit -> unit;
      (** register drivers, spawn the episode's threads; runs after the
          world reboot, before the scheduler starts *)
  ep_check : unit -> Invariants.violation list;
      (** episode-specific invariants, evaluated at quiescence *)
}

type stats = {
  mutable executions : int;  (** completed schedules *)
  mutable pruned : int;  (** sleep-set-blocked / aborted schedules *)
  mutable steps : int;  (** scheduling decisions across all schedules *)
  mutable max_branching : int;  (** deepest branching depth observed *)
  mutable capped : bool;  (** true if the exec cap cut exploration short *)
}

type counterexample = {
  cx_violation : Invariants.violation;
  cx_trace : string;  (** minimized forced prefix (replayable) *)
  cx_full_trace : string;  (** the complete schedule that found it *)
}

type report = {
  r_episode : string;
  r_stats : stats;
  r_counterexamples : counterexample list;
  r_lock_edges : (string * string) list;
      (** dynamic lock-acquisition order accumulated over the episode *)
}

(* --- one execution ----------------------------------------------------- *)

type node_obs = {
  no_prefix : Trace.key list;  (* decisions strictly before this node *)
  no_enabled : Trace.key array;
  no_chosen : Trace.key;
  no_branching : int;  (* branching depth when this node was reached *)
  no_sleep_in : (Trace.key * Trace.acc list) list;
  mutable no_acc : Trace.acc list;  (* accesses of the step taken here *)
}

type exec = {
  x_trace : Trace.key list;
  x_nodes : node_obs array;
  x_violations : Invariants.violation list;
  x_pruned : bool;
  x_diverged : Trace.key option;
}

let classify_exn = function
  | Decaf_drivers.Driver_core.Illegal_transition _ as e ->
      Invariants.vf "illegal-transition" "%s" (Printexc.to_string e)
  | K.Sched.Would_block_in_atomic what ->
      Invariants.vf "blocked-in-atomic" "%s" what
  | K.Panic.Kernel_bug msg -> Invariants.vf "panic" "%s" msg
  | e -> Invariants.vf "exception" "%s" (Printexc.to_string e)

let run_one episode ~graph ~prefix ~sleep0 =
  K.Boot.boot ();
  let monitor = Invariants.monitor graph in
  let nodes = ref [] in
  let cur : node_obs option ref = ref None in
  let acc = ref [] in
  let sleep = ref sleep0 in
  let close_step () =
    let l = List.sort_uniq compare !acc in
    acc := [];
    match !cur with
    | Some n ->
        n.no_acc <- l;
        (* the step just executed wakes every sleeper it conflicts with *)
        sleep :=
          List.filter (fun (_, sa) -> not (Trace.dependent_sets sa l)) !sleep;
        cur := None
    | None -> ()
  in
  let forced = ref prefix in
  let taken = ref [] in
  let branching = ref 0 in
  let pruned = ref false in
  let diverged = ref None in
  K.Ktrace.set_hook (fun o a ->
      acc := (Trace.norm_obj o, a) :: !acc;
      Invariants.on_event monitor o a);
  let controller choices =
    close_step ();
    let keys = Trace.keys_of_choices choices in
    let n = Array.length keys in
    let index_of k =
      let rec go i = if i >= n then None else if keys.(i) = k then Some i else go (i + 1) in
      go 0
    in
    let pick =
      match !forced with
      | k :: rest -> (
          match index_of k with
          | Some i ->
              forced := rest;
              Some i
          | None ->
              diverged := Some k;
              None)
      | [] ->
          let rec first i =
            if i >= n then None
            else if List.mem_assoc keys.(i) !sleep then first (i + 1)
            else Some i
          in
          if first 0 = None && n > 0 then pruned := true;
          first 0
    in
    match pick with
    | None -> -1
    | Some i ->
        let k = keys.(i) in
        if List.mem_assoc k !sleep then begin
          (* a forced branch that is asleep here is provably redundant *)
          pruned := true;
          -1
        end
        else begin
          let node =
            {
              no_prefix = List.rev !taken;
              no_enabled = keys;
              no_chosen = k;
              no_branching = !branching;
              no_sleep_in = !sleep;
              no_acc = [];
            }
          in
          nodes := node :: !nodes;
          cur := Some node;
          taken := k :: !taken;
          if n >= 2 then incr branching;
          i
        end
  in
  K.Sched.set_controller controller;
  let outcome =
    try
      episode.ep_setup ();
      K.Sched.run ();
      None
    with e -> Some e
  in
  close_step ();
  K.Sched.clear_controller ();
  K.Ktrace.clear_hook ();
  let aborted = !pruned || !diverged <> None in
  let violations =
    if aborted then []
    else
      let races = Invariants.race_violations monitor in
      match outcome with
      | Some e -> races @ [ classify_exn e ]
      | None ->
          races
          @ Invariants.leak_violations ()
          @ Invariants.supervisor_violations ()
          @ episode.ep_check ()
  in
  {
    x_trace = List.rev !taken;
    x_nodes = Array.of_list (List.rev !nodes);
    x_violations = violations;
    x_pruned = !pruned;
    x_diverged = !diverged;
  }

(* --- dynamic partial-order reduction ----------------------------------- *)

type node_state = {
  mutable ns_done : Trace.key list;  (* explored or scheduled branches *)
  mutable ns_first : (Trace.key * Trace.acc list) list;
      (* first-step access set of each executed branch, for sleep sets *)
  ns_sleep_in : (Trace.key * Trace.acc list) list;
}

let node_state table (n : node_obs) =
  let key = Trace.to_string n.no_prefix in
  match Hashtbl.find_opt table key with
  | Some ns -> ns
  | None ->
      let ns = { ns_done = []; ns_first = []; ns_sleep_in = n.no_sleep_in } in
      Hashtbl.replace table key ns;
      ns

let record_nodes table (x : exec) =
  Array.iter
    (fun n ->
      let ns = node_state table n in
      if not (List.mem n.no_chosen ns.ns_done) then
        ns.ns_done <- n.no_chosen :: ns.ns_done;
      if not (List.mem_assoc n.no_chosen ns.ns_first) then
        ns.ns_first <- (n.no_chosen, n.no_acc) :: ns.ns_first)
    x.x_nodes

(* Happens-before from this execution: program order within a thread
   plus an edge between every pair of dependent steps. Steps of the
   clock pseudo-thread ("clock") are program-ordered like any other. *)
let dpor_schedule table work ~depth (x : exec) =
  let nodes = x.x_nodes in
  let n = Array.length nodes in
  if n = 0 then ()
  else begin
    let tname i = Trace.base_of_key nodes.(i).no_chosen in
    let tidx = Hashtbl.create 8 in
    let nth = ref 0 in
    for i = 0 to n - 1 do
      let t = tname i in
      if not (Hashtbl.mem tidx t) then begin
        Hashtbl.replace tidx t !nth;
        incr nth
      end
    done;
    let nt = !nth in
    let vc_of = Hashtbl.create 8 in
    let vc t =
      match Hashtbl.find_opt vc_of t with
      | Some v -> v
      | None -> Array.make nt 0
    in
    let step_vc = Array.make n [||] in
    let pre_vc = Array.make n [||] in
    for i = 0 to n - 1 do
      let t = tname i in
      let ti = Hashtbl.find tidx t in
      let cur = Array.copy (vc t) in
      pre_vc.(i) <- Array.copy cur;
      for j = 0 to i - 1 do
        if Trace.dependent_sets nodes.(j).no_acc nodes.(i).no_acc then
          Array.iteri (fun k v -> if v > cur.(k) then cur.(k) <- v) step_vc.(j)
      done;
      cur.(ti) <- cur.(ti) + 1;
      step_vc.(i) <- cur;
      Hashtbl.replace vc_of t cur
    done;
    (* Backtrack: for each concurrent dependent pair (j, i), try running
       step i's thread at step j's decision node. *)
    let scheduled = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        let tj = tname j and ti_name = tname i in
        if
          tj <> ti_name
          && Trace.dependent_sets nodes.(j).no_acc nodes.(i).no_acc
          && step_vc.(j).(Hashtbl.find tidx tj)
             > pre_vc.(i).(Hashtbl.find tidx tj)
        then begin
          let node = nodes.(j) in
          if node.no_branching < depth then begin
            let ns = node_state table node in
            let enabled = Array.to_list node.no_enabled in
            let cands =
              List.filter (fun k -> Trace.base_of_key k = ti_name) enabled
            in
            (* classical fallback: if the racing thread was not enabled
               at that node, every enabled branch must be tried *)
            let cands = if cands = [] then enabled else cands in
            List.iter
              (fun k ->
                if k <> node.no_chosen && not (List.mem k ns.ns_done) then begin
                  ns.ns_done <- k :: ns.ns_done;
                  let sleep0 =
                    List.filter (fun (a, _) -> a <> k) ns.ns_first
                    @ List.filter
                        (fun (a, _) ->
                          a <> k && not (List.mem_assoc a ns.ns_first))
                        ns.ns_sleep_in
                  in
                  scheduled := (node.no_prefix @ [ k ], sleep0) :: !scheduled
                end)
              cands
          end
        end
      done
    done;
    work := !scheduled @ !work
  end

(* --- exploration, minimization, replay --------------------------------- *)

let violations_with_cycle graph (x : exec) =
  x.x_violations
  @ match Invariants.cycle_violation graph with Some v -> [ v ] | None -> []

(* Shortest forced prefix of [trace] whose default continuation still
   reproduces a violation of [kind]. *)
let minimize episode ~kind trace =
  let arr = Array.of_list trace in
  let len = Array.length arr in
  let reproduces n =
    let graph = Invariants.new_graph () in
    let x =
      run_one episode ~graph
        ~prefix:(Array.to_list (Array.sub arr 0 n))
        ~sleep0:[]
    in
    List.exists (fun v -> v.Invariants.v_kind = kind)
      (violations_with_cycle graph x)
  in
  let rec go n = if n > len then trace else if reproduces n then Array.to_list (Array.sub arr 0 n) else go (n + 1) in
  go 0

let replay episode trace_s =
  let graph = Invariants.new_graph () in
  let x = run_one episode ~graph ~prefix:(Trace.of_string trace_s) ~sleep0:[] in
  violations_with_cycle graph x

let explore ?depth episode =
  let depth = Option.value depth ~default:episode.ep_depth in
  let graph = Invariants.new_graph () in
  let table : (string, node_state) Hashtbl.t = Hashtbl.create 256 in
  let stats =
    { executions = 0; pruned = 0; steps = 0; max_branching = 0; capped = false }
  in
  let found : (string, Invariants.violation * Trace.key list) Hashtbl.t =
    Hashtbl.create 4
  in
  let work = ref [ ([], []) ] in
  while
    !work <> [] && stats.executions + stats.pruned < episode.ep_max_execs
  do
    match !work with
    | [] -> ()
    | (prefix, sleep0) :: rest ->
        work := rest;
        let x = run_one episode ~graph ~prefix ~sleep0 in
        if x.x_pruned || x.x_diverged <> None then
          stats.pruned <- stats.pruned + 1
        else begin
          stats.executions <- stats.executions + 1;
          stats.steps <- stats.steps + Array.length x.x_nodes;
          let b =
            Array.fold_left
              (fun acc n -> if Array.length n.no_enabled >= 2 then acc + 1 else acc)
              0 x.x_nodes
          in
          if b > stats.max_branching then stats.max_branching <- b;
          List.iter
            (fun (v : Invariants.violation) ->
              if not (Hashtbl.mem found v.v_kind) then
                Hashtbl.replace found v.v_kind (v, x.x_trace))
            (violations_with_cycle graph x);
          record_nodes table x;
          dpor_schedule table work ~depth x
        end
  done;
  if !work <> [] then stats.capped <- true;
  let cxs =
    Hashtbl.fold
      (fun kind (v, tr) acc ->
        let m = minimize episode ~kind tr in
        {
          cx_violation = v;
          cx_trace = Trace.to_string m;
          cx_full_trace = Trace.to_string tr;
        }
        :: acc)
      found []
    |> List.sort (fun a b ->
           compare a.cx_violation.Invariants.v_kind
             b.cx_violation.Invariants.v_kind)
  in
  {
    r_episode = episode.ep_name;
    r_stats = stats;
    r_counterexamples = cxs;
    r_lock_edges = Invariants.edges graph;
  }
