(** The one place that knows a driver's build.

    Each driver is written once against this module; the env it is
    probed with decides where every call goes. [Native] is the original
    Linux driver: all of it runs in the kernel. [Staged] and [Decaf] are
    split builds whose user-level half runs in the C driver library or,
    once converted, the managed runtime:

    - {b I/O}: the port and MMIO accessors are plain kernel accesses in
      [Native], direct Jeannie calls from user level when split.
    - {b Crossings}: {!upcall} carries control (and marshaled bytes) to
      the user-level half, {!downcall} a kernel call back down, each
      counted by {!Decaf_xpc.Channel} and the env's {!meter}; a [Decaf]
      upcall first starts the managed runtime. In [Native] both are
      ordinary calls and count nothing. Every crossing, native ones
      included, runs under the env's {!Decaf_xpc.Boundary} scope.
    - {b Notifies}: {!notify} posts a one-way refresh to
      {!Decaf_xpc.Batch}; [Native] has no user-level view to refresh and
      posts nothing.
    - {b Syncs}: a delivered notify or a record applied from the env's
      ring counts one sync in the meter.
    - {b Rings}: {!ring} makes a binding's shared ring in the user-level
      domain, or none in [Native].
    - {b Lifetime}: the registry {!close}s a binding's env at unbind; a
      notify delivered through a closed env raises
      {!Decaf_kernel.Panic.Kernel_bug}. *)

type mode = Native | Staged | Decaf

type meter = {
  mutable upcalls : int;
  mutable downcalls : int;
  mutable notifies : int;  (** posted, whether or not delivered yet *)
  mutable wire_bytes : int;  (** payload bytes of the three above *)
  mutable syncs : int;  (** notifies delivered and ring records applied *)
}

type t = {
  mode : mode;
  scope : string;
      (** The binding id this env serves; [""] for the bare envs below.
          Drivers name their Boundary scopes and rings after it (falling
          back to the driver name via {!scope_or}), so a fleet of
          instances of one module keeps per-instance accounting. *)
  meter : meter;
  mutable closed : bool;  (** set by {!close}, never cleared *)
}

val create : mode -> scope:string -> t
(** A fresh env with a zero meter; the registry makes one per bind. *)

val close : t -> unit
(** End the env's binding: a notify it posted that is delivered from
    now on raises {!Decaf_kernel.Panic.Kernel_bug} ["<scope>: deferred
    notification delivered after unbind"] instead of running. *)

val native : t
(** [native], [staged] and [decaf] are unscoped envs shared by every
    direct driver load (tests, benches); nothing reads their meters. *)

val staged : t
(** The migration staging ground of §5.3: kernel/user crossings into the
    C driver library, but no C/Java transitions and no managed-runtime
    start. This is how the paper ran all user-mode E1000 functions
    before converting them to Java one at a time. *)

val decaf : t

val scope_or : t -> string -> string
(** [scope_or env default] is the env's binding id, or [default] when
    the env is unscoped (direct driver use in tests and benches). *)

val mode_name : mode -> string

val split : t -> bool
(** Whether the build has a user-level half: [false] in [Native], where
    a shared structure's kernel copy is its only copy and nothing is
    marshaled. *)

val start_runtime : t -> unit
(** Start the managed runtime in [Decaf], nothing otherwise: for work
    bound for user level that precedes the {!upcall} (which starts it
    too). *)

(** {2 Port and MMIO access} *)

val inb : t -> int -> int
val inw : t -> int -> int
val inl : t -> int -> int
val readl : t -> int -> int
val outb : t -> int -> int -> unit
val outw : t -> int -> int -> unit
val outl : t -> int -> int -> unit
val writel : t -> int -> int -> unit

(** {2 Crossings} *)

val upcall : t -> name:string -> bytes:int -> (unit -> 'a) -> 'a
val downcall : t -> name:string -> bytes:int -> (unit -> 'a) -> 'a

val notify : t -> name:string -> bytes:int -> (unit -> unit) -> unit
(** One-way, non-urgent upcall (stats, link state, a hardware pointer),
    batched rather than crossing now, and therefore legal from interrupt
    context. Never use it for anything the caller's next step depends
    on. Delivery after the env is {!close}d is a kernel bug. *)

val ring :
  t ->
  name:string ->
  guard:Decaf_xpc.Guard.t ->
  resolve:(int -> (int, string) result) ->
  apply:(Decaf_xpc.Ring.record -> unit) ->
  Decaf_xpc.Ring.t option
(** The binding's shared ring ({!Decaf_xpc.Ring.create}), consumed in
    the user-level domain; [None] in [Native]. *)
