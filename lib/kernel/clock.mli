(** The virtual clock and event queue of the simulated machine.

    Time is measured in integer nanoseconds since boot. Work performed by
    driver or kernel code is charged with {!consume}, which also delivers
    any hardware events (device timers, interrupt sources) that become due
    while the work runs — modelling interrupts preempting the CPU. *)

type event_id

val now : unit -> int
(** Current virtual time in nanoseconds. *)

val busy_ns : unit -> int
(** Total virtual time spent busy (charged via {!consume}). *)

val utilization : since:int -> busy_since:int -> float
(** CPU utilization over the window starting at virtual time [since] with
    busy counter value [busy_since]: (busy now - busy_since) / (now - since).
    Returns 0 for an empty window. *)

val consume : int -> unit
(** [consume ns] charges [ns] of busy CPU time, advancing the clock and
    running any events that become due in the interval (at their due
    time). *)

val at : int -> (unit -> unit) -> event_id
(** [at t f] schedules [f] to run at absolute virtual time [t] (or
    immediately after now, if [t] is in the past). Events scheduled for
    the same due time fire in scheduling order (stable FIFO tie-break),
    and an id kept across {!reset} is never pending and cannot cancel a
    fresh event — both are load-bearing for reproducible latency
    percentiles. *)

val after : int -> (unit -> unit) -> event_id
(** [after ns f] is [at (now () + ns) f]. *)

val cancel : event_id -> unit
(** Cancel a pending event; cancelling a fired event is a no-op. *)

val pending : event_id -> bool
(** Whether the event is scheduled and not yet fired or cancelled. *)

val no_event : event_id
(** An id that is never pending, for a slot that has scheduled nothing
    yet. *)

val scheduled : unit -> int
(** Total events ever scheduled since boot (diagnostic). *)

val has_events : unit -> bool
(** Whether any event is pending. *)

val advance_to_next_event : unit -> bool
(** Idle until the next pending event and run every event due at that
    instant. Returns [false] when no event is pending. The elapsed
    interval counts as idle time. *)

val reset : unit -> unit
(** Reboot: clear all events, return to time 0, zero the busy counter,
    drop all in-flight tracked events and empty every latency path
    ({!Latency.reset}). Ids from a previous life stop being pending, so
    they can never cancel this life's events. *)

(** {2 Tracked events}

    A tracked event pairs a birth stamp with a completion stamp; the
    elapsed virtual time is recorded into the path's histogram
    ({!Latency.observe_at}). Producers resolve their {!Latency.path}
    once; FIFO keys are strings. *)

val complete_since : Latency.path -> int -> unit
(** [complete_since path born] records now - [born] (at least 0) into
    [path]'s histogram. The birth is a plain [now ()] int kept by the
    producer (a crossing, a NIC frame), so an event carries no stamp
    record. *)

val track_begin : Latency.path -> unit
(** FIFO-paired birth stamp for pipelines that preserve order but lose
    identity (a NIC rx fifo, the mouse byte stream), one FIFO per path.
    Each FIFO is bounded; past the bound the oldest birth is
    discarded. *)

val track_end : Latency.path -> int option
(** Complete the path's oldest outstanding birth: records into
    [path]'s histogram and returns the elapsed ns, or [None] when no
    birth is outstanding (a no-op, so completion points are safe to run
    against producers that never stamped). *)

val track_drain : Latency.path -> unit
(** Drop every outstanding birth for the path (hotplug killed the
    producer; completions after the replug must not pair with births
    from before it). *)
