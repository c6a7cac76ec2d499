(* The decaf-check exploration experiment: run the real-driver episode
   catalog through the DPOR explorer and render the per-episode
   statistics table and the counterexamples, as text or JSON. *)

module Check = Decaf_check
module Explore = Check.Explore
module Episodes = Check.Episodes
module Invariants = Check.Invariants

type result = {
  x_depth : int;  (** branching-depth bound the exploration ran at *)
  x_report : Explore.report;
}

let episode_names = List.map (fun e -> e.Explore.ep_name) Episodes.all

let run ?episode ?depth ?(smoke = false) () =
  let eps =
    match episode with
    | None -> Episodes.all
    | Some name -> Option.to_list (Episodes.find name)
  in
  let d =
    match depth with
    | Some d -> d
    | None -> if smoke then Explore.smoke_depth else Explore.full_depth
  in
  List.map (fun e -> { x_depth = d; x_report = Explore.explore ~depth:d e }) eps

(* --- text rendering --------------------------------------------------- *)

let header =
  Printf.sprintf "%-22s %5s %9s %7s %7s %6s %6s  %s" "episode" "depth"
    "schedules" "pruned" "steps" "maxbr" "capped" "violations"

let render_row { x_depth; x_report = r } =
  let s = r.Explore.r_stats in
  Printf.sprintf "%-22s %5d %9d %7d %7d %6d %6s  %d" r.Explore.r_episode
    x_depth s.Explore.executions s.Explore.pruned s.Explore.steps
    s.Explore.max_branching
    (if s.Explore.capped then "yes" else "no")
    (List.length r.Explore.r_counterexamples)

let render_cx (cx : Explore.counterexample) =
  Printf.sprintf "    %s\n      trace: %s\n      found: %s"
    (Invariants.violation_to_string cx.Explore.cx_violation)
    (if cx.Explore.cx_trace = "" then "(default schedule)"
     else cx.Explore.cx_trace)
    cx.Explore.cx_full_trace

let render results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (render_row r);
      Buffer.add_char buf '\n';
      List.iter
        (fun cx ->
          Buffer.add_string buf (render_cx cx);
          Buffer.add_char buf '\n')
        r.x_report.Explore.r_counterexamples)
    results;
  Buffer.contents buf

(* --- JSON rendering ---------------------------------------------------- *)

let render_json results =
  let open Jsonl in
  let cx_json (cx : Explore.counterexample) =
    Obj
      [
        ("kind", Str cx.Explore.cx_violation.Invariants.v_kind);
        ("detail", Str cx.Explore.cx_violation.Invariants.v_detail);
        ("trace", Str cx.Explore.cx_trace);
        ("full_trace", Str cx.Explore.cx_full_trace);
      ]
  in
  let result_json { x_depth; x_report = r } =
    let s = r.Explore.r_stats in
    to_string
      (Obj
         [
           ("episode", Str r.Explore.r_episode);
           ("depth", Int x_depth);
           ("schedules", Int s.Explore.executions);
           ("pruned", Int s.Explore.pruned);
           ("steps", Int s.Explore.steps);
           ("max_branching", Int s.Explore.max_branching);
           ("capped", Bool s.Explore.capped);
           ( "counterexamples",
             Arr (List.map cx_json r.Explore.r_counterexamples) );
         ])
  in
  Printf.sprintf "[%s]\n" (String.concat ",\n " (List.map result_json results))
