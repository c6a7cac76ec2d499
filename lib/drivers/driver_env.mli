(** Execution environment shared by the native and decaf builds of each
    driver.

    A driver is written once against this record. In native mode both
    hooks are the identity: every function runs in the kernel, as in the
    original Linux driver. In decaf mode, [upcall] carries control (and
    the marshaled bytes) from the kernel to the decaf driver and
    [downcall] carries a kernel-function invocation back down, so the
    very same driver logic becomes a split driver whose crossings are
    counted by {!Decaf_xpc.Channel}. *)

type mode = Native | Staged | Decaf

type t = {
  mode : mode;
  scope : string;
      (** The binding id this environment serves, stamped by the driver
          registry when it meters the env; [""] for the bare
          constructors below. Drivers name their {!Decaf_xpc.Boundary}
          scopes and XPC rings after it (falling back to the driver
          name via {!scope_or}) so a fleet of instances of one module
          keeps per-instance accounting. *)
  upcall : 'a. name:string -> bytes:int -> (unit -> 'a) -> 'a;
  downcall : 'a. name:string -> bytes:int -> (unit -> 'a) -> 'a;
  notify : name:string -> bytes:int -> (unit -> unit) -> unit;
      (** One-way, non-urgent upcall (stats update, link-state change,
          multicast-list refresh): posted to {!Decaf_xpc.Batch} rather
          than crossing immediately, and therefore legal from interrupt
          context. In native mode it is an ordinary call. Never use this
          for anything the caller's next step depends on. *)
}

val scope_or : t -> string -> string
(** [scope_or env default] is the env's binding id, or [default] when
    the env was never metered (direct driver use in tests/benches). *)

val native : t

val staged : t
(** The migration staging ground of §5.3: user-level code runs, but in
    the C driver library rather than the managed language — upcalls
    target the driver-library domain, so there are kernel/user crossings
    but no C/Java transitions and no managed-runtime start. This is how
    the paper ran all user-mode E1000 functions before converting them
    to Java one at a time. *)

val decaf : t
(** The decaf environment: upcalls enter the decaf-driver domain
    (starting the managed runtime on first use), downcalls enter the
    kernel. Like [native] and [staged] it captures nothing, so every
    binding shares one. *)

val of_mode : mode -> t
(** [native], [staged] or [decaf] according to [mode]. *)

val mode_name : mode -> string
