(** Scenario plumbing shared by the experiments: boot the machine and
    run a body in a scheduler thread. *)

val boot : unit -> unit
(** {!Decaf_kernel.Boot.boot}, then register the five drivers with
    {!Decaf_drivers.Driver_core}. *)

val in_thread : (unit -> 'a) -> 'a
(** Run the body as the initial kernel thread and drive the simulation
    until it completes. *)
