(** Call graph over a parsed driver, the input to DriverSlicer's
    partitioning.

    Indirect calls (through function pointers) are handled
    conservatively: an indirect call site may invoke any function whose
    address is taken anywhere in the file. This is what makes data-path
    functions that dispatch through pointers drag most of a driver into
    the kernel partition — the effect the paper reports for uhci-hcd. *)

type t

val build : Ast.file -> t

val callees : t -> string -> string list
(** Defined functions directly or indirectly callable from the named
    function's body (one hop). *)

val external_callees : t -> string -> string list
(** Called names with no definition in the file (kernel imports). *)

val callers : t -> string -> string list
val address_taken : t -> string list

val reachable : t -> roots:string list -> string list
(** Defined functions transitively reachable from the roots (roots
    included when defined), sorted. *)

val defined : t -> string list
