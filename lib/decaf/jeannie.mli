(** The Jeannie bridge between the decaf driver ("Java") and the driver
    library ("C") (§3.1.1).

    Two call classes exist: {!direct} calls for scalar arguments — a
    plain cross-language call with no marshaling — and {!via_xpc} calls
    for pointer-bearing arguments, which pay the C/Java XPC cost and
    marshal through XDR. Downcalls into the kernel always traverse C
    first; {!to_kernel} charges both boundary crossings. *)

val direct : ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [direct io a b] invokes driver-library code [io] from the decaf
    driver with scalar arguments (e.g. a port-I/O helper). Charged as a
    bare language transition. The arguments are passed, not captured,
    so a call allocates nothing. *)

val via_xpc : bytes:int -> (unit -> 'a) -> 'a
(** Invoke driver-library code passing complex objects: full C/Java XPC
    with [bytes] of marshaled data. *)

val to_kernel : bytes:int -> (unit -> 'a) -> 'a
(** Downcall from the decaf driver to the kernel (via C, §3.1). *)

val direct_call_count : unit -> int
(** Direct calls since the last {!Decaf_kernel.Boot.boot}. *)
