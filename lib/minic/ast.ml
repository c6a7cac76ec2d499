(** Abstract syntax of the mini-C language that DriverSlicer analyzes.

    The subset covers what Linux-style driver code needs: struct and
    typedef declarations with marshaling attributes, functions, the
    [goto]-label error-handling idiom, and ordinary statements and
    expressions. Every node keeps its source location so tools can patch
    the original text. *)

type attr = { attr_name : string; attr_arg : string option }
(** One parsed [__attribute__((name(arg)))] annotation, e.g. the
    [exp(PCI_LEN)] marshaling hint of the paper's Figure 3. *)

type ikind = Ichar | Ishort | Iint | Ilong | Ilonglong

type typ =
  | Tvoid
  | Tint of { kind : ikind; unsigned : bool }
  | Tnamed of string  (** a typedef name such as [uint32_t] *)
  | Tstruct of string
  | Tptr of typ
  | Tarray of typ * int option

type unop = Neg | Lnot | Bnot | Deref | Addr_of

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Mod
  | Shl
  | Shr
  | Lt
  | Gt
  | Le
  | Ge
  | Eq
  | Ne
  | Band
  | Bor
  | Bxor
  | Land
  | Lor

type expr =
  | Econst of int
  | Estr of string
  | Echar of char
  | Eident of string
  | Eunop of unop * expr
  | Ebinop of binop * expr * expr
  | Eassign of binop option * expr * expr
      (** [lhs = rhs] or compound [lhs op= rhs] *)
  | Ecall of expr * expr list
  | Efield of expr * string
  | Earrow of expr * string
  | Eindex of expr * expr
  | Ecast of typ * expr
  | Esizeof_type of typ
  | Esizeof_expr of expr
  | Econd of expr * expr * expr
  | Epostincr of expr
  | Epostdecr of expr
  | Epreincr of expr
  | Epredecr of expr

type stmt = { skind : stmt_kind; sloc : Loc.t }

and switch_case =
  | Case of int * stmt list
  | Default of stmt list

and stmt_kind =
  | Sexpr of expr
  | Sdecl of typ * string * expr option
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sdo of stmt list * expr
  | Sfor of stmt option * expr option * expr option * stmt list
  | Sreturn of expr option
  | Sgoto of string
  | Slabel of string
  | Sswitch of expr * switch_case list
  | Sbreak
  | Scontinue
  | Sblock of stmt list

type field = { fname : string; ftyp : typ; fattrs : attr list }

type struct_def = { sname : string; sfields : field list; sloc : Loc.t }

type param = { pname : string; ptyp : typ }

type func = {
  fname : string;
  fret : typ;
  fparams : param list;
  fbody : stmt list;
  fstatic : bool;
  floc_start : Loc.t;
  floc_end : Loc.t;
}

type global =
  | Gstruct of struct_def
  | Gtypedef of { tname : string; ttyp : typ; tloc : Loc.t }
  | Gfunc of func
  | Gfundecl of { dname : string; dret : typ; dparams : param list; dloc : Loc.t }
  | Gvar of { vname : string; vtyp : typ; vinit : expr option; vloc : Loc.t }
  | Gpragma of string * Loc.t

type file = { source : string; globals : global list }

(* --- Traversals --- *)

(** An expression's immediate sub-expressions, in evaluation order. *)
let children = function
  | Econst _ | Estr _ | Echar _ | Eident _ | Esizeof_type _ -> []
  | Eunop (_, a)
  | Ecast (_, a)
  | Esizeof_expr a
  | Efield (a, _)
  | Earrow (a, _)
  | Epostincr a
  | Epostdecr a
  | Epreincr a
  | Epredecr a ->
      [ a ]
  | Ebinop (_, a, b) | Eassign (_, a, b) | Eindex (a, b) -> [ a; b ]
  | Econd (a, b, c) -> [ a; b; c ]
  | Ecall (callee, args) -> callee :: args

(** Every statement of a body, nested ones included, in pre-order: a
    statement comes before the statements it contains (a [for]'s init
    first, then its body; an [if]'s then-branch before its else-branch;
    switch cases in order). *)
let rec stmts body =
  List.concat_map
    (fun s ->
      s
      ::
      (match s.skind with
      | Sif (_, a, b) -> stmts a @ stmts b
      | Swhile (_, b) | Sdo (b, _) | Sblock b -> stmts b
      | Sfor (init, _, _, b) -> stmts (Option.to_list init) @ stmts b
      | Sswitch (_, cases) ->
          List.concat_map (function Case (_, b) | Default b -> stmts b) cases
      | Sexpr _ | Sdecl _ | Sreturn _ | Sgoto _ | Slabel _ | Sbreak
      | Scontinue ->
          []))
    body

(** The expressions a statement itself evaluates, not those of the
    statements nested in it: a condition, a [for]'s condition and update,
    an initializer, a returned or bare expression. *)
let exprs_of s =
  match s.skind with
  | Sexpr e | Sdecl (_, _, Some e) | Sreturn (Some e) -> [ e ]
  | Sif (c, _, _) | Swhile (c, _) | Sdo (_, c) | Sswitch (c, _) -> [ c ]
  | Sfor (_, cond, update, _) -> Option.to_list cond @ Option.to_list update
  | Sdecl (_, _, None) | Sreturn None | Sgoto _ | Slabel _ | Sbreak
  | Scontinue | Sblock _ ->
      []

(** Fold [f] over an expression and all its sub-expressions, parents
    before children. *)
let rec fold_expr f acc e = List.fold_left (fold_expr f) (f acc e) (children e)

(** Fold [f] over every expression node of a body, each exactly once:
    statements in {!stmts} order, each statement's {!exprs_of} through
    {!fold_expr}. *)
let fold_exprs_stmts f acc body =
  List.fold_left (fold_expr f) acc (List.concat_map exprs_of (stmts body))

let functions file =
  List.filter_map (function Gfunc f -> Some f | _ -> None) file.globals

let structs file =
  List.filter_map (function Gstruct s -> Some s | _ -> None) file.globals

let typedefs file =
  List.filter_map
    (function Gtypedef { tname; ttyp; _ } -> Some (tname, ttyp) | _ -> None)
    file.globals

let find_function file name =
  List.find_opt (fun f -> f.fname = name) (functions file)

let find_struct file name =
  List.find_opt (fun s -> s.sname = name) (structs file)
