(** Kernel synchronization primitives.

    Includes the paper's {e combolocks} (§3.1.3): a combolock behaves as a
    spinlock while only kernel threads contend for it, and converts to a
    semaphore once user-level code acquires it, so that kernel threads
    block instead of spinning while the decaf driver holds the lock. *)

module Waitq : sig
  type t

  val create : ?name:string -> unit -> t
  (** [name] labels the queue's {!Ktrace} identity ("name#id"). *)

  val wait : t -> unit
  (** Block the current thread on the queue. *)

  val wake_one : t -> bool
  (** Wake the oldest waiter; [false] if the queue was empty. *)

  val wake_all : t -> int
  (** Wake every waiter, returning how many were woken. *)

  val waiters : t -> int
end

module Spinlock : sig
  type t

  val create : ?name:string -> unit -> t

  val lock : t -> unit
  (** Acquire. Self-deadlock (recursive acquisition on this one-CPU
      machine) raises {!Panic.Kernel_bug}. *)

  val unlock : t -> unit
  val held : t -> bool

  val with_lock : t -> (unit -> 'a) -> 'a

  val lock_irqsave : t -> unit
  (** Acquire and mask interrupts (modelled as entering atomic context). *)

  val unlock_irqrestore : t -> unit
end

module Semaphore : sig
  type t

  val create : ?name:string -> int -> t
  val down : t -> unit
  val up : t -> unit
  val count : t -> int
end

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t

  val lock : t -> unit
  (** Blocking acquire; recursive acquisition raises {!Panic.Kernel_bug}. *)

  val unlock : t -> unit
  val held : t -> bool
  val with_lock : t -> (unit -> 'a) -> 'a
end

module Completion : sig
  type t

  val create : unit -> t
  val wait : t -> unit
  val complete : t -> unit
  val complete_all : t -> unit
  val done_ : t -> bool
end

module Combolock : sig
  type t

  type stats = {
    mutable spin_acquires : int;  (** fast-path kernel-only acquisitions *)
    mutable sem_acquires : int;  (** semaphore-path acquisitions *)
    mutable contended : int;
        (** semaphore-path acquisitions that found the lock unavailable *)
    mutable spin_to_sem : int;
        (** kernel acquisitions forced off the spin fast path because
            user level held or was waiting for the lock *)
    mutable wait_ns : int;
        (** virtual ns spent blocked, beyond the semaphore op's own cost *)
  }

  val create : ?name:string -> unit -> t

  val lock_kernel : t -> unit
  (** Acquire from kernel code: spinlock behaviour unless user-level code
      holds or waits for the lock, in which case block on the semaphore. *)

  val unlock_kernel : t -> unit

  val lock_user : t -> unit
  (** Acquire from user-level (decaf driver / driver library) code: always
      the semaphore path, and flips the lock into semaphore mode so that
      kernel threads wait rather than spin. *)

  val unlock_user : t -> unit
  val with_kernel : t -> (unit -> 'a) -> 'a
  val with_user : t -> (unit -> 'a) -> 'a
  val stats : t -> stats

  val totals : unit -> stats
  (** Snapshot of machine-wide counters summed over every combolock
      since the last {!reset_totals}. *)

  val reset_totals : unit -> unit
  (** Zero the totals; every {!Boot.boot} does. *)

  val set_wait_observer : (int -> unit) -> unit
  (** Register a callback invoked with the virtual ns a thread just spent
      blocked on any combolock (only when > 0). Used by the XPC dispatch
      engine to charge lock waits to the worker lane that incurred them.
      The observer survives {!reset_totals}; registering replaces the
      previous observer. *)
end
