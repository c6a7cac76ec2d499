(** Table 3: performance of Decaf Drivers on common workloads.

    A slice of the {!Xpcperf} matrix: each of the paper's eight rows is
    one scenario's unoptimized serial cell under the decaf build and its
    native twin ({!Xpcperf.native_twins}), giving relative performance,
    CPU utilization and initialization latency in both builds, and the
    kernel/user crossings of the decaf initialization. *)

val render : Xpcperf.sample list -> string
(** The table in the paper's row order, over the rows whose two cells
    are both in the samples. *)
