(** The move-and-click workload: continuous mouse motion for a fixed
    virtual duration (the paper uses 30 seconds). *)

type result = {
  events_delivered : int;
  packets : int;
  cpu_utilization : float;
  elapsed_ns : int;
  event_rate_hz : float;
      (** events over effective time (elapsed minus the dispatch work
          worker lanes overlap, {!Decaf_xpc.Dispatch.overlap_saved_ns}
          delta); the cost-sensitive metric Xpcperf tracks *)
}

val run :
  model:Decaf_hw.Psmouse_hw.t ->
  input:Decaf_kernel.Inputcore.t ->
  duration_ns:int ->
  result

val pp : Format.formatter -> result -> unit
