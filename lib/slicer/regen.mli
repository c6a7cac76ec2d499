(** Stub and marshaling-code regeneration as the driver evolves (§3.2.4).

    Re-running DriverSlicer on an updated source cannot see accesses made
    from Java code, so a programmer adds [DECAF_*VAR] annotations for any
    newly-referenced fields; regeneration merges the resulting plans with
    the previous ones and reports what changed. *)

type change = {
  ch_type : string;  (** struct whose plan changed *)
  ch_added_fields : string list;
  ch_widened_fields : string list;  (** access promoted, e.g. R -> RW *)
}

val regenerate :
  old_plans:Decaf_xpc.Marshal_plan.t list ->
  source:string ->
  Slicer.config ->
  Slicer.output * change list
(** Slice the updated source and union every new plan with its
    predecessor, returning the merged output and the per-struct
    changes. *)
