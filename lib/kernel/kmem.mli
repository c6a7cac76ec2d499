(** Kernel memory accounting with allocation-failure injection.

    Models the kernel's allocation discipline: [GFP_KERNEL] allocations
    may sleep and are therefore illegal in interrupt context or under a
    spinlock; [GFP_ATOMIC] allocations never sleep. Outstanding
    allocations are tracked so tests can detect leaks on error paths — the
    common driver problem the paper's finalizer proposal targets (§5.1). *)

type gfp = Atomic | Kernel

type allocation

exception Double_free of string

val alloc : ?gfp:gfp -> tag:string -> int -> allocation option
(** [alloc ~tag bytes] returns [None] when failure injection triggers
    (drivers must handle this, as with a NULL return). Default [gfp] is
    [Kernel]. *)

val alloc_exn : ?gfp:gfp -> tag:string -> int -> allocation
(** Like {!alloc} but raises [Out_of_memory] on injected failure. *)

exception Out_of_memory of string

val free : allocation -> unit
(** Release; double free raises {!Double_free}. *)

val size : allocation -> int

val inject_failure : after:int -> unit
(** Make the [after]-th subsequent allocation (1-based) fail, once. *)

val clear_injection : unit -> unit

val outstanding : unit -> int * int
(** (number, total bytes) of live allocations. *)

val leaks : unit -> (string * int) list
(** Tags and sizes of live allocations, oldest first. *)

val reset : unit -> unit
