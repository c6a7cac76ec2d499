(** Per-driver registry snapshots for [decafctl status]. *)

val driver_names : string list
(** Names accepted by [decafctl status --driver], as registered in
    {!Decaf_drivers.Driver_set}. *)

val measure : unit -> Decaf_drivers.Driver_core.snapshot list
(** Boot, load all five drivers through the registry in decaf mode, run
    a slice of each Table 3 workload (with one E1000 suspend/resume
    cycle), and snapshot every driver while still bound. *)

val render : Decaf_drivers.Driver_core.snapshot list -> string

val render_json : Decaf_drivers.Driver_core.snapshot list -> string
(** [decafctl status --json]: one JSON object per binding per line
    (fleet instances are distinguished by their ["id"] field),
    carrying the full snapshot — lifecycle state, mode, XPC traffic,
    boundary rejections and supervisor counters — with no JSON library
    involved, like the trajectory files. *)

val render_latency : unit -> string
(** [decafctl status --latency]: per-path p50/p99/p999/max columns from
    the {!Decaf_kernel.Latency} event-accounting registry, as populated
    by the workload slice the last {!measure} ran. *)
