(** The recovery supervisor for decaf drivers.

    Decaf's safety claim is that a fault in user-level driver code need
    not take the kernel down. The supervisor is the nucleus-side
    enforcement of that claim: it runs a driver's lifecycle under a
    handler that catches every decaf-level failure — checked hardware
    exceptions that escaped the driver, {!Decaf_xpc.Channel.Xpc_failure}
    from a dead crossing, anything else the user level throws — restarts
    the user-level runtime ({!Runtime.restart}: fresh object trackers,
    JVM startup re-charged, driver re-probed by re-running the body), and
    enforces a bounded restart budget. When the budget is exhausted the
    driver is left in an explicit degraded state: disabled, with the
    kernel alive.

    {!Decaf_kernel.Panic.Kernel_bug} is deliberately {e not} caught: a
    kernel bug is exactly what the supervisor must never paper over, and
    the fault campaign asserts none occur. *)

type t

type state = Running | Restarting | Disabled

type stats = {
  detected : int;  (** fault episodes caught *)
  recovered : int;  (** episodes resolved by a successful retry *)
  degraded : int;  (** episodes that ended in the disabled state *)
  restarts : int;  (** runtime restarts performed *)
}

val create : ?restart_budget:int -> ?restart_delay_ns:int -> name:string -> unit -> t
(** [restart_budget] (default 3) bounds restarts per {!run};
    [restart_delay_ns] (default 100ms) lets in-flight device events
    drain before the retry. *)

val run : t -> ?on_restart:(unit -> unit) -> (unit -> 'a) -> 'a option
(** Run the driver body under supervision. Returns [Some v] when the body
    (possibly after restarts) completes, [None] when the restart budget
    is exhausted and the driver is disabled. [on_restart] defaults to
    {!Runtime.restart}. A disabled supervisor refuses to run. *)

val note_tolerated : t -> unit
(** Account one fault that was injected but absorbed by the driver's own
    error handling, with no restart needed: detected and recovered in the
    same breath. *)

val state : t -> state
val stats : t -> stats

val restart_budget : t -> int
(** The configured budget (restarts allowed per {!run}). *)

val restarts_left : t -> int
(** Conservative budget remaining: 0 once disabled, otherwise the
    configured budget minus restarts already performed across this
    supervisor's lifetime. *)
