(** Cooperative kernel threads over OCaml effects.

    The simulated machine has one CPU. Threads run until they block
    ({!suspend}, {!sleep_ns}) or {!yield}; when no thread is runnable the
    scheduler idles the CPU forward to the next {!Clock} event. Interrupt
    handlers are not threads — they run inline from clock events with
    {!in_interrupt} set and must never block.

    A thread keeps its own resume state and run-queue link, so a
    {!yield}, or a {!sleep_ns} and its wakeup, allocates nothing beyond
    the continuation that [perform] builds. *)

type thread

exception Would_block_in_atomic of string
(** Raised when code attempts to block inside an interrupt handler or
    while holding a spinlock — the bug class the paper's combolocks and
    deferral techniques exist to avoid. *)

val spawn : ?name:string -> (unit -> unit) -> thread
(** Create a runnable thread, queued behind those already runnable.
    Uncaught exceptions from the thread body abort the simulation
    run. *)

val current_name : unit -> string
(** Name of the running thread, or ["<cpu>"] outside any thread. *)

val current_tid : unit -> int
(** Id of the running thread, stable across suspensions; [0] outside any
    thread. Lets per-thread state (e.g. {!Decaf_xpc.Dispatch} lane
    bindings) survive interleavings of blocking green threads. *)

val yield : unit -> unit
(** Let other runnable threads execute. *)

val suspend : register:((unit -> unit) -> unit) -> unit
(** Block the current thread. [register] receives the wakeup function to
    stash wherever the sleeper waits (a wait queue, a timer, ...); calling
    it makes the thread runnable again. Calling the wakeup more than once
    is harmless. Each call builds its own once-only wakeup. *)

val sleep_ns : int -> unit
(** Block for the given virtual duration: one clock event, armed with
    the wakeup the thread was given at {!spawn}. *)

val in_interrupt : unit -> bool
(** Whether the CPU is currently executing an interrupt handler. *)

val enter_interrupt : unit -> unit
(** Mark interrupt-handler entry (used by {!Irq} and {!Timer}). *)

val exit_interrupt : unit -> unit

val set_irq_window_hook : (unit -> unit) -> unit
(** Register the callback run whenever the CPU becomes able to take an
    interrupt again (leaves interrupt context with irqs unmasked, or
    unmasks with no handler running). {!Irq} hangs its blocked-line
    backlog drain here, so pending lines are delivered the moment a
    window opens instead of polling for one; {!Irq.reset}, and so every
    {!Boot.boot}, re-installs that drain over any other hook. *)

val spin_depth : unit -> int
(** Number of spinlocks held on this CPU; blocking is forbidden when
    non-zero. *)

val local_irq_save : unit -> unit
(** Mask interrupt delivery on this CPU (counting). *)

val local_irq_restore : unit -> unit

val irqs_masked : unit -> bool

val spin_acquire : unit -> unit

val spin_release : unit -> unit

val assert_may_block : string -> unit
(** Raise {!Would_block_in_atomic} if called in interrupt context or with
    a spinlock held. *)

val thread_name : thread -> string

type choice = Run_thread of thread | Advance_clock
(** One option at a scheduling decision point: dispatch a runnable
    thread, or advance the virtual clock to its next event (delivering
    timers and interrupt retries). *)

val set_controller : (choice array -> int) -> unit
(** Route every scheduling decision through the given function. At each
    iteration of {!run} it is shown the runnable threads in queue
    arrival order, plus {!Advance_clock} as the last element whenever
    the event queue is nonempty, and returns the index of the choice to
    take; index 0 reproduces the uncontrolled FIFO schedule, a negative
    return aborts the run. Installed by the systematic-exploration
    harness ({!Decaf_check}); survives {!reset} so it keeps steering
    across the per-execution reboot. *)

val clear_controller : unit -> unit

val run : ?until_ns:int -> unit -> unit
(** Run the simulation: execute runnable threads, idling the clock forward
    when none are runnable, until there is nothing left to do or the clock
    passes [until_ns]. *)

val runnable_count : unit -> int
(** Number of threads currently queued to run. *)

val reset : unit -> unit
(** Discard all threads and context flags (reboot). *)
