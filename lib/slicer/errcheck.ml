module Ast = Decaf_minic.Ast
module Loc = Decaf_minic.Loc
module Sset = Set.Make (String)

type violation_kind = Ignored_return | Unchecked_variable of string

type violation = {
  v_function : string;
  v_callee : string;
  v_kind : violation_kind;
  v_line : int;
}

(* Does the function body contain [return -CONST]? *)
let returns_negative_constant (fn : Ast.func) =
  List.exists
    (fun (s : Ast.stmt) ->
      match s.Ast.skind with
      | Sreturn (Some (Ast.Econst n)) -> n < 0
      | Sreturn (Some (Ast.Eunop (Ast.Neg, Ast.Econst n))) -> n > 0
      | _ -> false)
    (Ast.stmts fn.Ast.fbody)

(* Direct callees whose value can escape through this function's return:
   either [return f(...)] directly, or [v = f(...); ... return v]. *)
let propagates_call_of (fn : Ast.func) =
  let direct = ref Sset.empty in
  let assigned_from : (string, Sset.t) Hashtbl.t = Hashtbl.create 8 in
  let returned_vars = ref Sset.empty in
  let note_assign var callee =
    let prev =
      Option.value ~default:Sset.empty (Hashtbl.find_opt assigned_from var)
    in
    Hashtbl.replace assigned_from var (Sset.add callee prev)
  in
  List.iter
    (fun (s : Ast.stmt) ->
      match s.Ast.skind with
      | Sreturn (Some (Ast.Ecall (Ast.Eident callee, _))) ->
          direct := Sset.add callee !direct
      | Sreturn (Some (Ast.Eident v)) ->
          returned_vars := Sset.add v !returned_vars
      | Sexpr
          (Ast.Eassign (None, Ast.Eident v, Ast.Ecall (Ast.Eident callee, _)))
      | Sdecl (_, v, Some (Ast.Ecall (Ast.Eident callee, _))) ->
          note_assign v callee
      | _ -> ())
    (Ast.stmts fn.Ast.fbody);
  Sset.fold
    (fun var acc ->
      match Hashtbl.find_opt assigned_from var with
      | Some callees -> Sset.union callees acc
      | None -> acc)
    !returned_vars !direct

let error_returning_functions (file : Ast.file) ~extra =
  let funcs = Ast.functions file in
  let base =
    List.fold_left
      (fun acc fn ->
        if returns_negative_constant fn then Sset.add fn.Ast.fname acc else acc)
      (Sset.of_list extra) funcs
  in
  (* propagate to fixpoint: a function returning an error-returning
     function's result is itself error-returning *)
  let rec fixpoint known =
    let next =
      List.fold_left
        (fun acc fn ->
          if Sset.mem fn.Ast.fname acc then acc
          else if not (Sset.is_empty (Sset.inter (propagates_call_of fn) acc))
          then Sset.add fn.Ast.fname acc
          else acc)
        known funcs
    in
    if Sset.cardinal next = Sset.cardinal known then known else fixpoint next
  in
  Sset.elements (fixpoint base)

let expr_mentions var e =
  Ast.fold_expr
    (fun acc e -> acc || match e with Ast.Eident x -> x = var | _ -> false)
    false e

(* Nested statements appear separately in the {!Ast.stmts} sequence, so
   only the statement's own expressions count. *)
let stmt_mentions var s = List.exists (expr_mentions var) (Ast.exprs_of s)

(* A loop evaluates its condition (and a [for] its update) again after
   each statement nested in it, though the pre-order sequence lists the
   loop first: those expressions are later reads of what [s] stores. *)
let loop_reads linear (s : Ast.stmt) =
  List.concat_map
    (fun (l : Ast.stmt) ->
      match l.Ast.skind with
      | (Swhile _ | Sdo _ | Sfor _) when List.memq s (Ast.stmts [ l ]) ->
          Ast.exprs_of l
      | _ -> [])
    linear

let find_violations (file : Ast.file) ~extra =
  let errfns = Sset.of_list (error_returning_functions file ~extra) in
  let check_function (fn : Ast.func) =
    (* the pre-order sequence approximates control flow for the
       never-read-after test *)
    let linear = Ast.stmts fn.Ast.fbody in
    let rec scan acc = function
      | [] -> acc
      | (s : Ast.stmt) :: rest -> (
          match s.Ast.skind with
          (* bare call to an error-returning function *)
          | Sexpr (Ast.Ecall (Ast.Eident callee, _)) when Sset.mem callee errfns
            ->
              scan
                ({
                   v_function = fn.Ast.fname;
                   v_callee = callee;
                   v_kind = Ignored_return;
                   v_line = s.Ast.sloc.Loc.line;
                 }
                :: acc)
                rest
          (* result stored but never read afterwards *)
          | Sexpr (Ast.Eassign (None, Ast.Eident var, Ast.Ecall (Ast.Eident callee, _)))
          | Sdecl (_, var, Some (Ast.Ecall (Ast.Eident callee, _)))
            when Sset.mem callee errfns ->
              if
                List.exists (stmt_mentions var) rest
                || List.exists (expr_mentions var) (loop_reads linear s)
              then scan acc rest
              else
                scan
                  ({
                     v_function = fn.Ast.fname;
                     v_callee = callee;
                     v_kind = Unchecked_variable var;
                     v_line = s.Ast.sloc.Loc.line;
                   }
                  :: acc)
                  rest
          | _ -> scan acc rest)
    in
    scan [] linear |> List.rev
  in
  List.concat_map check_function (Ast.functions file)

(* --- flow-sensitive upgrade -------------------------------------------
   The syntactic scan above answers "is the result ever mentioned
   again?" over a flattened body, which misses two bug shapes: a result
   overwritten before any test (the overwrite is a mention), and a
   result that is tested on one path but silently dropped at a merge
   point or early return. This per-function dataflow tracks, per
   variable, whether it holds an untested error result. *)

type flow_kind =
  | Overwritten of int  (** line where the untested result was stored *)
  | Dropped  (** path reaches a return / function end without a test *)

type flow_violation = {
  fv_function : string;
  fv_callee : string;  (** the error-returning function whose result is lost *)
  fv_var : string;
  fv_kind : flow_kind;
  fv_line : int;
}

module Smap = Map.Make (String)

type var_state = Unchecked of string * int | Checked

(* Unchecked survives a merge on either side: may-analysis, so a result
   tested in one branch but dropped in the other is still reported. *)
let flow_merge a b =
  Smap.merge
    (fun _ x y ->
      match (x, y) with
      | Some (Unchecked _ as u), _ | _, Some (Unchecked _ as u) -> Some u
      | Some Checked, _ | _, Some Checked -> Some Checked
      | None, None -> None)
    a b

let flow_check_function errfns (fn : Ast.func) =
  let viols = ref [] in
  let report fv = viols := fv :: !viols in
  let store env var callee line =
    (match Smap.find_opt var env with
    | Some (Unchecked (c0, l0)) ->
        report
          {
            fv_function = fn.Ast.fname;
            fv_callee = c0;
            fv_var = var;
            fv_kind = Overwritten l0;
            fv_line = line;
          }
    | _ -> ());
    Smap.add var (Unchecked (callee, line)) env
  in
  (* Evaluate an expression: any read of a tracked variable counts as
     examining it; [v = errfn(...)] starts tracking v. *)
  let rec eval env line (e : Ast.expr) =
    match e with
    | Ast.Eassign (None, Ast.Eident v, rhs) -> (
        let env = eval env line rhs in
        match rhs with
        | Ast.Ecall (Ast.Eident c, _) when Sset.mem c errfns ->
            store env v c line
        | _ ->
            (match Smap.find_opt v env with
            | Some (Unchecked (c0, l0)) when not (expr_mentions v rhs) ->
                report
                  {
                    fv_function = fn.Ast.fname;
                    fv_callee = c0;
                    fv_var = v;
                    fv_kind = Overwritten l0;
                    fv_line = line;
                  }
            | _ -> ());
            Smap.add v Checked env)
    | Ast.Eident v ->
        if Smap.mem v env then Smap.add v Checked env else env
    | _ -> List.fold_left (fun env a -> eval env line a) env (Ast.children e)
  in
  let drop_all env =
    Smap.iter
      (fun var st ->
        match st with
        | Unchecked (c, l) ->
            report
              {
                fv_function = fn.Ast.fname;
                fv_callee = c;
                fv_var = var;
                fv_kind = Dropped;
                fv_line = l;
              }
        | Checked -> ())
      env
  in
  (* Statement walk threads (env, alive); alive=false after a terminator. *)
  let rec stmts env body =
    List.fold_left
      (fun (env, alive) s -> if alive then stmt env s else (env, alive))
      (env, true) body
  and stmt env (s : Ast.stmt) =
    let line = s.Ast.sloc.Loc.line in
    match s.Ast.skind with
    | Sexpr e -> (eval env line e, true)
    | Sdecl (_, v, Some (Ast.Ecall (Ast.Eident c, args)))
      when Sset.mem c errfns ->
        let env =
          List.fold_left (fun env a -> eval env line a) env args
        in
        (store env v c line, true)
    | Sdecl (_, v, Some e) ->
        let env = eval env line e in
        (Smap.add v Checked env, true)
    | Sdecl (_, v, None) -> (Smap.remove v env, true)
    | Sif (c, a, b) -> (
        let env = eval env line c in
        let ea, la = stmts env a in
        let eb, lb = stmts env b in
        match (la, lb) with
        | true, true -> (flow_merge ea eb, true)
        | true, false -> (ea, true)
        | false, true -> (eb, true)
        | false, false -> (env, false))
    | Swhile (c, body) ->
        let env = eval env line c in
        let eb, alive = stmts env body in
        let eb = if alive then eval eb line c else eb in
        (flow_merge env eb, true)
    | Sdo (body, c) ->
        let eb, alive = stmts env body in
        let eb = if alive then eval eb line c else eb in
        (flow_merge env eb, true)
    | Sfor (init, cond, update, body) ->
        let env, _ =
          match init with Some s -> stmt env s | None -> (env, true)
        in
        let env =
          match cond with Some e -> eval env line e | None -> env
        in
        let eb, alive = stmts env body in
        (* the update, then the condition again *)
        let eb =
          if alive then
            List.fold_left (fun env e -> eval env line e) eb
              (Option.to_list update @ Option.to_list cond)
          else eb
        in
        (flow_merge env eb, true)
    | Sreturn e ->
        let env =
          match e with Some e -> eval env line e | None -> env
        in
        drop_all env;
        (env, false)
    | Sgoto _ ->
        (* the label's code may still examine the result: no report *)
        (env, false)
    | Slabel _ ->
        (* merge point with unknown predecessors: forget everything *)
        (Smap.map (fun _ -> Checked) env, true)
    | Sbreak | Scontinue -> (env, false)
    | Sswitch (e, cases) ->
        let env = eval env line e in
        let has_default =
          List.exists (function Ast.Default _ -> true | _ -> false) cases
        in
        let outs =
          List.filter_map
            (fun case ->
              let body =
                match case with Ast.Case (_, b) | Ast.Default b -> b
              in
              let e, alive = stmts env body in
              if alive then Some e else None)
            cases
        in
        let outs = if has_default then outs else env :: outs in
        (match outs with
        | [] -> (env, false)
        | first :: rest -> (List.fold_left flow_merge first rest, true))
    | Sblock body -> stmts env body
  in
  let env, alive = stmts Smap.empty fn.Ast.fbody in
  if alive then drop_all env;
  List.rev !viols

let flow_violations (file : Ast.file) ~extra =
  let errfns = Sset.of_list (error_returning_functions file ~extra) in
  List.concat_map (flow_check_function errfns) (Ast.functions file)
  |> List.sort_uniq compare

(* [if (v) return v;], [if (v) return -C;], [if (v) goto l;] — the pure
   propagation shapes an exception rewrite deletes. *)
let is_propagation (s : Ast.stmt) =
  match s.Ast.skind with
  | Sif (Ast.Eident v, [ { Ast.skind = Sreturn (Some (Ast.Eident v')); _ } ], [])
    ->
      v = v'
  | Sif (Ast.Eident _, [ { Ast.skind = Sreturn (Some (Ast.Econst _)); _ } ], [])
  | Sif
      ( Ast.Eident _,
        [ { Ast.skind = Sreturn (Some (Ast.Eunop (Ast.Neg, Ast.Econst _))); _ } ],
        [] )
  | Sif (Ast.Eident _, [ { Ast.skind = Sgoto _; _ } ], []) ->
      true
  | _ -> false

let propagation_sites (fn : Ast.func) =
  List.length (List.filter is_propagation (Ast.stmts fn.Ast.fbody))

let func_loc source (fn : Ast.func) =
  Loc_count.count_range Loc_count.C source ~first:fn.Ast.floc_start.Loc.line
    ~last:fn.Ast.floc_end.Loc.line

let exception_savings (file : Ast.file) ~funcs =
  List.fold_left
    (fun (removed, total) name ->
      match Ast.find_function file name with
      | Some fn ->
          (removed + propagation_sites fn, total + func_loc file.Ast.source fn)
      | None -> (removed, total))
    (0, 0) funcs
