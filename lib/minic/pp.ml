open Ast

let ikind_to_string unsigned kind =
  let base =
    match kind with
    | Ichar -> "char"
    | Ishort -> "short"
    | Iint -> "int"
    | Ilong -> "long"
    | Ilonglong -> "long long"
  in
  if unsigned then "unsigned " ^ base else base

(* Print a type as specifier text; arrays are handled at the declarator. *)
let rec typ ppf = function
  | Tvoid -> Format.pp_print_string ppf "void"
  | Tint { kind; unsigned } ->
      Format.pp_print_string ppf (ikind_to_string unsigned kind)
  | Tnamed n -> Format.pp_print_string ppf n
  | Tstruct n -> Format.fprintf ppf "struct %s" n
  | Tptr t -> Format.fprintf ppf "%a *" typ t
  | Tarray (t, _) -> Format.fprintf ppf "%a *" typ t
(* bare array type (no declarator): decays to pointer *)

(* Split a declarator type into (specifier type, array suffixes). *)
let rec split_arrays = function
  | Tarray (t, n) ->
      let base, dims = split_arrays t in
      (base, dims @ [ n ])
  | t -> (t, [])

let declarator ppf (t, name) =
  let base, dims = split_arrays t in
  Format.fprintf ppf "%a %s" typ base name;
  List.iter
    (function
      | Some n -> Format.fprintf ppf "[%d]" n
      | None -> Format.fprintf ppf "[]")
    dims

let unop_to_string = function
  | Neg -> "-"
  | Lnot -> "!"
  | Bnot -> "~"
  | Deref -> "*"
  | Addr_of -> "&"

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Mod -> "%"
  | Shl -> "<<"
  | Shr -> ">>"
  | Lt -> "<"
  | Gt -> ">"
  | Le -> "<="
  | Ge -> ">="
  | Eq -> "=="
  | Ne -> "!="
  | Band -> "&"
  | Bor -> "|"
  | Bxor -> "^"
  | Land -> "&&"
  | Lor -> "||"

(* Fully parenthesized output: simple and unambiguous for reparsing. *)
let rec expr ppf = function
  | Econst n ->
      if n < 0 then Format.fprintf ppf "(%d)" n else Format.fprintf ppf "%d" n
  | Estr s -> Format.fprintf ppf "%S" s
  | Echar c -> Format.fprintf ppf "'%s'" (Char.escaped c)
  | Eident x -> Format.pp_print_string ppf x
  | Eunop (op, e) -> Format.fprintf ppf "(%s%a)" (unop_to_string op) expr e
  | Ebinop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" expr a (binop_to_string op) expr b
  | Eassign (None, l, r) -> Format.fprintf ppf "%a = %a" expr l expr r
  | Eassign (Some op, l, r) ->
      Format.fprintf ppf "%a %s= %a" expr l (binop_to_string op) expr r
  | Ecall (f, args) ->
      Format.fprintf ppf "%a(%a)" expr f
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           expr)
        args
  | Efield (e, f) -> Format.fprintf ppf "%a.%s" expr e f
  | Earrow (e, f) -> Format.fprintf ppf "%a->%s" expr e f
  | Eindex (e, i) -> Format.fprintf ppf "%a[%a]" expr e expr i
  | Ecast (t, e) -> Format.fprintf ppf "((%a) %a)" typ t expr e
  | Esizeof_type t -> Format.fprintf ppf "sizeof(%a)" typ t
  | Esizeof_expr e -> Format.fprintf ppf "(sizeof %a)" expr e
  | Econd (c, a, b) -> Format.fprintf ppf "(%a ? %a : %a)" expr c expr a expr b
  | Epostincr e -> Format.fprintf ppf "(%a++)" expr e
  | Epostdecr e -> Format.fprintf ppf "(%a--)" expr e
  | Epreincr e -> Format.fprintf ppf "(++%a)" expr e
  | Epredecr e -> Format.fprintf ppf "(--%a)" expr e

let rec stmt ppf (s : Ast.stmt) =
  match s.skind with
  | Sexpr e -> Format.fprintf ppf "@[%a;@]" expr e
  | Sdecl (t, name, init) -> (
      match init with
      | Some e -> Format.fprintf ppf "@[%a = %a;@]" declarator (t, name) expr e
      | None -> Format.fprintf ppf "@[%a;@]" declarator (t, name))
  | Sif (c, a, []) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,}" expr c stmts a
  | Sif (c, a, b) ->
      Format.fprintf ppf "@[<v 2>if (%a) {@,%a@]@,@[<v 2>} else {@,%a@]@,}"
        expr c stmts a stmts b
  | Swhile (c, body) ->
      Format.fprintf ppf "@[<v 2>while (%a) {@,%a@]@,}" expr c stmts body
  | Sdo (body, c) ->
      Format.fprintf ppf "@[<v 2>do {@,%a@]@,} while (%a);" stmts body expr c
  | Sfor (init, cond, update, body) ->
      let pp_init ppf = function
        | Some ({ skind = Sdecl _; _ } as s) -> stmt_inline ppf s
        | Some { skind = Sexpr e; _ } -> expr ppf e
        | Some s -> stmt_inline ppf s
        | None -> ()
      in
      let pp_opt_expr ppf = function Some e -> expr ppf e | None -> () in
      Format.fprintf ppf "@[<v 2>for (%a; %a; %a) {@,%a@]@,}" pp_init init
        pp_opt_expr cond pp_opt_expr update stmts body
  | Sswitch (e, cases) ->
      let pp_case ppf = function
        | Ast.Case (v, body) ->
            Format.fprintf ppf "@[<v 2>case %d:@,%a@]"
              v stmts body
        | Ast.Default body ->
            Format.fprintf ppf "@[<v 2>default:@,%a@]" stmts body
      in
      Format.fprintf ppf "@[<v 2>switch (%a) {@,%a@]@,}" expr e
        (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_case)
        cases
  | Sreturn (Some e) -> Format.fprintf ppf "@[return %a;@]" expr e
  | Sreturn None -> Format.pp_print_string ppf "return;"
  | Sgoto l -> Format.fprintf ppf "goto %s;" l
  | Slabel l -> Format.fprintf ppf "%s:" l
  | Sbreak -> Format.pp_print_string ppf "break;"
  | Scontinue -> Format.pp_print_string ppf "continue;"
  | Sblock body -> Format.fprintf ppf "@[<v 2>{@,%a@]@,}" stmts body

(* like stmt but without the trailing semicolon (for for-loop headers) *)
and stmt_inline ppf (s : Ast.stmt) =
  match s.skind with
  | Sdecl (t, name, Some e) ->
      Format.fprintf ppf "%a = %a" declarator (t, name) expr e
  | Sdecl (t, name, None) -> declarator ppf (t, name)
  | _ -> stmt ppf s

and stmts ppf body =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut stmt ppf body

let param ppf (p : param) =
  if p.pname = "..." then Format.pp_print_string ppf "..."
  else if p.pname = "" then typ ppf p.ptyp
  else declarator ppf (p.ptyp, p.pname)

let func ppf (f : Ast.func) =
  Format.fprintf ppf "@[<v 2>%s%a %s(%a) {@,%a@]@,}"
    (if f.fstatic then "static " else "")
    typ f.fret f.fname
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       param)
    f.fparams stmts f.fbody

let attr ppf (a : attr) =
  match a.attr_arg with
  | Some arg -> Format.fprintf ppf " __attribute__((%s(%s)))" a.attr_name arg
  | None -> Format.fprintf ppf " __attribute__((%s))" a.attr_name

let field ppf (f : Ast.field) =
  Format.fprintf ppf "@[%a%a;@]" declarator (f.ftyp, f.fname)
    (Format.pp_print_list attr) f.fattrs

let struct_def ppf (s : Ast.struct_def) =
  Format.fprintf ppf "@[<v 2>struct %s {@,%a@]@,};" s.sname
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut field)
    s.sfields

let global ppf = function
  | Gstruct s -> struct_def ppf s
  | Gtypedef { tname; ttyp; _ } ->
      Format.fprintf ppf "typedef %a;" declarator (ttyp, tname)
  | Gfunc f -> func ppf f
  | Gfundecl { dname; dret; dparams; _ } ->
      Format.fprintf ppf "%a %s(%a);" typ dret dname
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           param)
        dparams
  | Gvar { vname; vtyp; vinit; _ } -> (
      match vinit with
      | Some e -> Format.fprintf ppf "%a = %a;" declarator (vtyp, vname) expr e
      | None -> Format.fprintf ppf "%a;" declarator (vtyp, vname))
  | Gpragma (text, _) -> Format.fprintf ppf "#%s" text

let file ppf (f : Ast.file) =
  Format.fprintf ppf "@[<v>%a@]@."
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,@,")
       global)
    f.globals

let with_str pp v = Format.asprintf "%a" pp v
let typ_to_string = with_str typ
let expr_to_string = with_str expr
let file_to_string = with_str file
