(** Table 3: performance of Decaf Drivers on common workloads.

    For each driver and workload, runs the native (all-kernel) and decaf
    builds in the simulator and reports: relative performance, CPU
    utilization in both modes, module-initialization latency in both
    modes, and the number of kernel/user crossings during
    initialization. *)

type measurement = {
  perf : float;  (** workload-specific figure of merit (higher = better) *)
  cpu : float;  (** CPU utilization, 0..1 *)
  init_ns : int;  (** insmod + interface-up latency *)
  init_crossings : int;  (** kernel/user round trips during init *)
}

type row = {
  driver : string;
  workload : string;
  perf_unit : string;
  native : measurement;
  decaf : measurement;
}

val cell :
  string -> string -> duration_ns:int -> Decaf_drivers.Driver_env.mode ->
  measurement
(** [cell driver workload ~duration_ns mode]: one half of a row — boot,
    plug the device, load the [mode] build, bring it up, run the
    workload, unload. *)

val relative_performance : row -> float
(** decaf perf / native perf. *)

val measure : ?duration_ns:int -> unit -> row list
(** Default duration: 2 virtual seconds of steady-state workload per
    cell. *)

val render : row list -> string
