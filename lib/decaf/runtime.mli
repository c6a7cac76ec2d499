(** The decaf runtime (user level) and nuclear runtime (kernel), shared
    by every decaf driver (§3).

    Holds the two object trackers — the kernel-side tracker of the
    Nooks lineage and the user-level "JavaOT" keyed by (C pointer, type
    id) — plus the helper routines the paper found necessary but
    inexpressible in Java: [sizeof], programmed I/O, and
    memory-mapped I/O, each exported to the decaf driver through the
    Jeannie bridge. *)

val kernel_tracker : unit -> Decaf_xpc.Objtracker.t
val java_tracker : unit -> Decaf_xpc.Objtracker.t
(** The user-level tracker ("JavaOT"). *)

val start : unit -> unit
(** Start the managed runtime for user-level driver code. The first
    start after a {!Decaf_kernel.Boot.boot} charges the JVM startup
    cost; later calls are no-ops. Every boot gives the runtime fresh
    trackers, an empty sizeof table and no nuclear worker. *)

val started : unit -> bool

val restart : unit -> unit
(** Restart the user-level runtime after a decaf-driver fault: both
    object trackers are rebuilt empty and the runtime returns to the
    not-started state, so the next upcall pays JVM startup again and
    re-registers its objects. The sizeof table is kept. *)

val restarts : unit -> int
(** Restarts since the last {!Decaf_kernel.Boot.boot}. *)

(** {1 Helper routines}

    Callable from the decaf driver; each performs the operation in the
    driver library via a direct Jeannie call. *)

module Helpers : sig
  val inb : int -> int
  val inw : int -> int
  val inl : int -> int
  val outb : int -> int -> unit
  val outw : int -> int -> unit
  val outl : int -> int -> unit
  val readl : int -> int
  val writel : int -> int -> unit
  val msleep : int -> unit
  (** Blocking sleep in milliseconds (the paper's
      [DriverWrappers.Java_msleep]). *)

  val sizeof : string -> int
  (** Size of a named kernel structure, per the registered table — the C
      [sizeof()] escape the paper describes. *)

  val register_sizeof : string -> int -> unit
end

(** {1 Nuclear runtime} *)

module Nuclear : sig
  val defer : (unit -> unit) -> unit
  (** Queue work that may block (and therefore may XPC up to the decaf
      driver) from high-priority kernel code — the watchdog-timer
      pattern of §3.1.3. *)

  val flush : unit -> unit
  (** Wait until all deferred work has run (process context only). *)

  val deferred_count : unit -> int
end
