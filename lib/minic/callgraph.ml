module Sset = Set.Make (String)

type t = {
  defined : Sset.t;
  direct : (string, Sset.t) Hashtbl.t;  (** caller -> defined callees *)
  externals : (string, Sset.t) Hashtbl.t;  (** caller -> undefined callees *)
  indirect_sites : Sset.t;  (** functions containing an indirect call *)
  taken : Sset.t;  (** functions whose address is taken *)
}

(* Collect, for one function body: direct callee names, whether it makes
   indirect calls, and the identifiers used as values anywhere other than
   as the callee of a direct call (a function named there has its
   address taken). *)
let analyze_body (fn : Ast.func) =
  let direct, indirect =
    Ast.fold_exprs_stmts
      (fun (direct, indirect) e ->
        match e with
        | Ast.Ecall (Ast.Eident callee, _) -> (Sset.add callee direct, indirect)
        | Ast.Ecall (_, _) -> (direct, true)
        | _ -> (direct, indirect))
      (Sset.empty, false) fn.Ast.fbody
  in
  let rec value_idents acc e =
    match e with
    | Ast.Ecall (Ast.Eident _, args) -> List.fold_left value_idents acc args
    | Ast.Eident x -> Sset.add x acc
    | _ -> List.fold_left value_idents acc (Ast.children e)
  in
  let exprs = List.concat_map Ast.exprs_of (Ast.stmts fn.Ast.fbody) in
  (direct, indirect, List.fold_left value_idents Sset.empty exprs)

let build (file : Ast.file) =
  let funcs = Ast.functions file in
  let defined =
    List.fold_left (fun s f -> Sset.add f.Ast.fname s) Sset.empty funcs
  in
  let direct = Hashtbl.create 64 in
  let externals = Hashtbl.create 64 in
  let indirect_sites = ref Sset.empty in
  let taken = ref Sset.empty in
  (* Global initializers can also take function addresses (ops tables). *)
  List.iter
    (function
      | Ast.Gvar { vinit = Some e; _ } ->
          Ast.fold_expr
            (fun () e ->
              match e with
              | Ast.Eident x when Sset.mem x defined ->
                  taken := Sset.add x !taken
              | _ -> ())
            () e
      | _ -> ())
    file.Ast.globals;
  List.iter
    (fun fn ->
      let callees, indirect, value_idents = analyze_body fn in
      let name = fn.Ast.fname in
      Hashtbl.replace direct name (Sset.inter callees defined);
      Hashtbl.replace externals name (Sset.diff callees defined);
      if indirect then indirect_sites := Sset.add name !indirect_sites;
      taken := Sset.union !taken (Sset.inter value_idents defined))
    funcs;
  {
    defined;
    direct;
    externals;
    indirect_sites = !indirect_sites;
    taken = !taken;
  }

let get tbl name = Option.value ~default:Sset.empty (Hashtbl.find_opt tbl name)

let callees t name =
  let d = get t.direct name in
  let all =
    if Sset.mem name t.indirect_sites then Sset.union d t.taken else d
  in
  Sset.elements all

let external_callees t name = Sset.elements (get t.externals name)

let callers t name =
  Sset.elements t.defined
  |> List.filter (fun caller -> List.mem name (callees t caller))

let address_taken t = Sset.elements t.taken

let reachable t ~roots =
  let rec go visited frontier =
    match frontier with
    | [] -> visited
    | name :: rest ->
        if Sset.mem name visited || not (Sset.mem name t.defined) then
          go visited rest
        else
          let visited = Sset.add name visited in
          go visited (callees t name @ rest)
  in
  Sset.elements (go Sset.empty roots)

let defined t = Sset.elements t.defined
