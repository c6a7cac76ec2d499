(** Virtual-time costs (in nanoseconds) charged by the simulated kernel.

    The table is an input of the simulation: a caller sets a field on
    {!current} and every later run prices that operation at the new
    value — {!Boot.boot} keeps it. The defaults are chosen so that the
    evaluation tables keep the shape reported in the paper (steady-state
    parity, multi-second decaf initialization); a caller that changes a
    field restores it when done.

    Every XPC cost below (crossings, marshaling, tracker lookups and
    locks, dispatch admission, guard checks, ring slots) is charged
    through [Decaf_xpc.Dispatch.charge], so it reaches the clock and the
    XPC account together: doubling any of them moves the [xpc_ns] of
    the cells that pay it. test_xpcperf's knob table holds each field to
    the measurements it must move and those it must leave alone. *)

type t = {
  mutable syscall_ns : int;  (** entering the kernel from an application *)
  mutable irq_dispatch_ns : int;  (** hardware interrupt entry/exit *)
  mutable spinlock_ns : int;  (** uncontended spinlock acquire+release *)
  mutable semaphore_ns : int;  (** uncontended semaphore down+up *)
  mutable ctx_switch_ns : int;  (** scheduler context switch *)
  mutable port_io_ns : int;  (** one programmed-I/O port access *)
  mutable mmio_ns : int;  (** one memory-mapped register access *)
  mutable xpc_kernel_user_ns : int;  (** kernel<->user XPC crossing, fixed *)
  mutable xpc_c_java_ns : int;  (** C<->Java XPC crossing, fixed *)
  mutable marshal_byte_ns : int;  (** per byte marshaled across kernel/user *)
  mutable remarshal_byte_ns : int;
      (** per byte for the C->Java re-marshal step (the paper notes data is
          unmarshaled in C and re-marshaled in Java) *)
  mutable objtracker_lookup_ns : int;  (** one object-tracker lookup *)
  mutable xpc_dispatch_ns : int;
      (** per-upcall worker-pool admission overhead; charged to the
          serving worker's lane in the dispatch accounting and, like
          every XPC charge, consumed on the global clock too *)
  mutable guard_check_ns : int;
      (** one boundary-validation check on an inbound field (range/enum/
          length/writability), charged per validated field when
          [Decaf_xpc.Guard] is enabled — on the kernel side of a reply,
          so off-lane *)
  mutable ring_slot_write_ns : int;
      (** writing one fixed-layout record into a shared XPC ring slot —
          a handful of stores into already-mapped memory, orders of
          magnitude below a crossing *)
  mutable ring_slot_read_ns : int;
      (** reading one record out of a shared ring slot on the consumer
          side, before guard validation *)
  mutable jvm_startup_ns : int;  (** one-time managed-runtime start cost *)
}

val current : t
(** The cost table used by the running simulation, starting at the
    defaults. *)
