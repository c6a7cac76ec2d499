(** Symbol table over a parsed driver source. *)

type t

val build : Ast.file -> t
val functions : t -> Ast.func list
val find_function : t -> string -> Ast.func option
val structs : t -> Ast.struct_def list
val find_struct : t -> string -> Ast.struct_def option
val typedef : t -> string -> Ast.typ option

val resolve : t -> Ast.typ -> Ast.typ
(** Chase typedefs down to a concrete type. *)

val declared_only : t -> string list
(** Functions declared (prototyped) but not defined here — the driver's
    imports from the kernel. *)

val is_defined : t -> string -> bool
