(** The interrupt controller of the simulated machine.

    Interrupt handlers run at high priority: they execute inline from
    clock events with {!Sched.in_interrupt} set and must not block. The
    nuclear runtime uses {!disable_irq} to keep a device from interrupting
    its own driver while the decaf driver runs (§3.1.3). *)

val nr_irqs : int

val request_irq : int -> name:string -> (unit -> unit) -> unit
(** Install the handler for a line. Raises {!Panic.Kernel_bug} if the line
    is out of range or already claimed. *)

val free_irq : int -> unit
(** Remove the line's handler and drop a pending assertion. A line still
    waiting in the blocked-line backlog stays there until the next
    delivery window, so a re-request never queues it twice. *)

val claimed : unit -> (int * string) list
(** Every line with a handler installed, with the name it was claimed
    under, in line order. *)

val raise_irq : int -> unit
(** Assert the line from a device model. Delivery is immediate unless the
    line is disabled, the CPU has interrupts masked, or another handler is
    running. Multiple assertions while pending coalesce (level-triggered).
    A pending line is delivered when its window opens, with no timer:
    at {!enable_irq} for a disabled line, and otherwise from a backlog of
    {!nr_irqs} slots that the {!Sched} irq-window hook drains when the
    CPU leaves interrupt context or unmasks. *)

val disable_irq : int -> unit
(** Disable delivery on the line (counting). *)

val enable_irq : int -> unit

val run_at_high_priority : (unit -> unit) -> unit
(** Run [f] in interrupt context as soon as the CPU allows (used by kernel
    timers, which fire at high priority). *)

val delivered : int -> int
(** Number of interrupts delivered on the line so far. *)

val spurious : unit -> int
(** Interrupts raised on lines with no handler. *)

val reset : unit -> unit
(** Power-on state: every line free, the backlog empty, and the backlog
    drain installed as the {!Sched} irq-window hook again. *)
