module Ast = Decaf_minic.Ast
module Pp = Decaf_minic.Pp
module Plan = Decaf_xpc.Marshal_plan

type field_annot = {
  fa_struct : string;
  fa_field : string;
  fa_kind : string;
  fa_arg : string option;
}

type var_annot = {
  va_function : string;
  va_access : Plan.access;
  va_path : string;
  va_field : string;
  va_line : int;
}

type t = { fields : field_annot list; vars : var_annot list }

let is_macro name = String.starts_with ~prefix:"DECAF_" name

let access_of_macro = function
  | "DECAF_RVAR" -> Some Plan.Read
  | "DECAF_WVAR" -> Some Plan.Write
  | "DECAF_RWVAR" -> Some Plan.Read_write
  | _ -> None

let rec last_field = function
  | Ast.Earrow (_, f) | Ast.Efield (_, f) -> f
  | Ast.Eident x -> x
  | Ast.Eindex (e, _) | Ast.Eunop (_, e) | Ast.Ecast (_, e) -> last_field e
  | _ -> ""

let collect_field_annots (file : Ast.file) =
  List.concat_map
    (fun (s : Ast.struct_def) ->
      List.concat_map
        (fun (f : Ast.field) ->
          List.map
            (fun (a : Ast.attr) ->
              {
                fa_struct = s.Ast.sname;
                fa_field = f.Ast.fname;
                fa_kind = a.Ast.attr_name;
                fa_arg = a.Ast.attr_arg;
              })
            f.Ast.fattrs)
        s.Ast.sfields)
    (Ast.structs file)

(* Each annotation keeps the line of its enclosing statement
   (annotation macros are always expression statements, but
   sub-expressions are covered too). *)
let collect_var_annots (file : Ast.file) =
  let in_function (fn : Ast.func) =
    let note line acc e =
      match e with
      | Ast.Ecall (Ast.Eident macro, [ arg ]) -> (
          match access_of_macro macro with
          | Some va_access ->
              {
                va_function = fn.Ast.fname;
                va_access;
                va_path = Pp.expr_to_string arg;
                va_field = last_field arg;
                va_line = line;
              }
              :: acc
          | None -> acc)
      | _ -> acc
    in
    List.fold_left
      (fun acc (s : Ast.stmt) ->
        let line = s.Ast.sloc.Decaf_minic.Loc.line in
        List.fold_left (Ast.fold_expr (note line)) acc (Ast.exprs_of s))
      [] (Ast.stmts fn.Ast.fbody)
    |> List.rev
  in
  List.concat_map in_function (Ast.functions file)

let collect file =
  { fields = collect_field_annots file; vars = collect_var_annots file }

let count_lines t = List.length t.fields + List.length t.vars
