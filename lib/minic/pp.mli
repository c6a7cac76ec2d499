(** Pretty-printer: renders the AST back to compilable mini-C text.

    [parse (print x)] yields an AST equal to [x] up to source locations —
    a property the test suite checks. *)

val typ : Format.formatter -> Ast.typ -> unit
val expr : Format.formatter -> Ast.expr -> unit
val stmt : Format.formatter -> Ast.stmt -> unit
val func : Format.formatter -> Ast.func -> unit
val struct_def : Format.formatter -> Ast.struct_def -> unit
val global : Format.formatter -> Ast.global -> unit
val file : Format.formatter -> Ast.file -> unit

val typ_to_string : Ast.typ -> string
val expr_to_string : Ast.expr -> string
val file_to_string : Ast.file -> string
