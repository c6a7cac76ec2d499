(** The decaf-check exploration experiment: drive the episode catalog
    through the DPOR explorer ({!Decaf_check.Explore}) and render the
    per-episode statistics, counterexamples and the dynamic
    lock-acquisition order. *)

type result = {
  x_depth : int;  (** branching-depth bound the exploration ran at *)
  x_report : Decaf_check.Explore.report;
}

val episode_names : string list

val run :
  ?episode:string ->
  ?depth:int ->
  ?smoke:bool ->
  unit ->
  result list
(** Explore the named episode (none when the name is not one of
    {!episode_names}) or the whole catalog. [smoke] selects each
    episode's reduced smoke depth; an explicit [depth] overrides both.
    Counterexamples are minimized. *)

val render : result list -> string
(** Statistics table, one row per episode, with any counterexamples
    (violation, minimized replay trace, full discovery trace) under
    their row. *)

val render_json : result list -> string
(** Machine-readable: one object per episode with stats,
    counterexamples and the dynamic lock-order edges. *)

val render_lock_order : result list -> string
(** The accumulated dynamic lock-acquisition-order edges per episode. *)
