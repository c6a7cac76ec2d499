type t = {
  funcs : (string, Ast.func) Hashtbl.t;
  struct_defs : (string, Ast.struct_def) Hashtbl.t;
  typedefs : (string, Ast.typ) Hashtbl.t;
  decls : (string, unit) Hashtbl.t;
  order : string list;  (** definition order of functions *)
}

let build (file : Ast.file) =
  let funcs = Hashtbl.create 64 in
  let struct_defs = Hashtbl.create 16 in
  let typedefs = Hashtbl.create 16 in
  let decls = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (function
      | Ast.Gfunc f ->
          Hashtbl.replace funcs f.Ast.fname f;
          order := f.Ast.fname :: !order
      | Ast.Gstruct s -> Hashtbl.replace struct_defs s.Ast.sname s
      | Ast.Gtypedef { tname; ttyp; _ } -> Hashtbl.replace typedefs tname ttyp
      | Ast.Gfundecl { dname; _ } -> Hashtbl.replace decls dname ()
      | Ast.Gvar _ | Ast.Gpragma _ -> ())
    file.Ast.globals;
  { funcs; struct_defs; typedefs; decls; order = List.rev !order }

let functions t = List.filter_map (Hashtbl.find_opt t.funcs) t.order
let find_function t name = Hashtbl.find_opt t.funcs name

let structs t =
  Hashtbl.fold (fun _ s acc -> s :: acc) t.struct_defs []
  |> List.sort (fun a b -> compare a.Ast.sname b.Ast.sname)

let find_struct t name = Hashtbl.find_opt t.struct_defs name
let typedef t name = Hashtbl.find_opt t.typedefs name

let rec resolve t = function
  | Ast.Tnamed n -> (
      match typedef t n with Some ty -> resolve t ty | None -> Ast.Tnamed n)
  | ty -> ty

let declared_only t =
  Hashtbl.fold
    (fun name () acc -> if Hashtbl.mem t.funcs name then acc else name :: acc)
    t.decls []
  |> List.sort compare

let is_defined t name = Hashtbl.mem t.funcs name
