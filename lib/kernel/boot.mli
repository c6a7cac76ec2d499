(** Whole-machine lifecycle for tests and experiments. *)

val boot : unit -> unit
(** Reset the machine to its power-on state: clock, scheduler, interrupt
    controller, I/O maps, PCI bus, memory accounting, device registries,
    fault plan, combolock totals and kernel log, then every hook
    registered with {!on_reset}, in registration order. Two runs after a
    [boot] in one process simulate the same thing. The cost table
    ({!Cost.current}) is an input, not machine state: a boot keeps it. *)

val on_reset : (unit -> unit) -> unit
(** Register a module's power-on reset. A module outside the kernel
    library that keeps machine state registers once, while it
    initialises; modules initialise in link order, so each hook runs
    after the hooks of the modules it uses. State meant to outlive a
    reboot (trace ids and hooks, the scheduling controller, mutant
    flags, observers) stays out of every hook. *)

val check_quiescent : unit -> (unit, string) result
(** After a run: verify no threads are runnable, no memory is leaked, and
    no events remain pending. Used by integration tests to prove clean
    driver shutdown. *)
