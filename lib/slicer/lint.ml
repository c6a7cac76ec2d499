module Ast = Decaf_minic.Ast
module Loc = Decaf_minic.Loc
module Callgraph = Decaf_minic.Callgraph
module Symtab = Decaf_minic.Symtab
module Plan = Decaf_xpc.Marshal_plan
module Sset = Set.Make (String)
module Smap = Map.Make (String)

type pass =
  | Lock_discipline
  | Annotation_soundness
  | Marshal_boundary
  | Error_flow
  | Inbound_validation

type severity = Error | Warning | Info

type finding = {
  f_pass : pass;
  f_severity : severity;
  f_anchor : string;
  f_line : int;
  f_message : string;
  f_witness : string list;
}

type waiver = {
  w_pass : pass;
  w_anchor : string;
  w_line : int;
  w_reason : string;
}

type report = {
  r_driver : string;
  r_findings : finding list;
  r_waived : (finding * waiver) list;
  r_unwaived : finding list;
  r_assumptions : finding list;
  r_unused_waivers : waiver list;
}

let pass_name = function
  | Lock_discipline -> "lock"
  | Annotation_soundness -> "annot"
  | Marshal_boundary -> "marshal"
  | Error_flow -> "errflow"
  | Inbound_validation -> "inbound"

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let default_atomic_roots (pc : Partition.config) =
  List.filter
    (fun name ->
      let l = String.lowercase_ascii name in
      contains_sub l "intr" || contains_sub l "irq"
      || contains_sub l "interrupt")
    pc.Partition.critical_roots

(* ===================== pass 1: lock / XPC discipline ================= *)

(* Lattice element: how many spinlocks are held and how deeply IRQs are
   disabled on the current path. Joins take the componentwise max (a
   path that may hold the lock taints the merge); call-context addition
   saturates at 2 so recursive lock wrappers terminate. *)
type lock_state = { spin : int; irq : int }

let bottom = { spin = 0; irq = 0 }
let is_atomic s = s.spin > 0 || s.irq > 0
let join_state a b = { spin = max a.spin b.spin; irq = max a.irq b.irq }

let sat n = if n > 2 then 2 else n

let add_state a b = { spin = sat (a.spin + b.spin); irq = sat (a.irq + b.irq) }

let state_desc s =
  match (s.spin > 0, s.irq > 0) with
  | true, true -> "spinlock held, IRQs disabled"
  | true, false -> "spinlock held"
  | false, true -> "IRQs disabled"
  | false, false -> "not atomic"

(* (spin delta, irq delta) of the classic kernel lock primitives. *)
let lock_effect = function
  | "spin_lock" | "spin_lock_bh" | "spin_trylock" -> Some (1, 0)
  | "spin_lock_irqsave" | "spin_lock_irq" -> Some (1, 1)
  | "spin_unlock" | "spin_unlock_bh" -> Some (-1, 0)
  | "spin_unlock_irqrestore" | "spin_unlock_irq" -> Some (-1, -1)
  | "local_irq_save" | "local_irq_disable" -> Some (0, 1)
  | "local_irq_restore" | "local_irq_enable" -> Some (0, -1)
  | _ -> None

let sleeping_primitives =
  Sset.of_list
    [
      "msleep";
      "msleep_interruptible";
      "ssleep";
      "usleep_range";
      "schedule";
      "schedule_timeout";
      "cond_resched";
      "mutex_lock";
      "mutex_lock_interruptible";
      "down";
      "down_interruptible";
      "down_killable";
      "wait_event";
      "wait_event_interruptible";
      "wait_event_timeout";
      "wait_for_completion";
      "vmalloc";
    ]

type call_site = {
  cs_callee : string;
  cs_state : lock_state;  (** locally acquired state at the site *)
  cs_line : int;
  cs_assumed : bool;  (** reached through an indirect call *)
}

type func_summary = {
  fs_name : string;
  fs_sites : call_site list;
  fs_uses_lock : bool;
  fs_indirect : (int * lock_state) list;  (** indirect call sites *)
  fs_local : finding list;  (** unbalanced / held-at-return findings *)
}

let summarize_function ~taken_defined (fn : Ast.func) =
  let sites = ref [] in
  let local = ref [] in
  let uses_lock = ref false in
  let indirect = ref [] in
  let note_local sev line msg =
    local :=
      {
        f_pass = Lock_discipline;
        f_severity = sev;
        f_anchor = fn.Ast.fname;
        f_line = line;
        f_message = msg;
        f_witness = [];
      }
      :: !local
  in
  let rec eval st line (e : Ast.expr) =
    match e with
    | Ast.Ecall (Ast.Eident name, args) -> (
        let st = List.fold_left (fun st a -> eval st line a) st args in
        match lock_effect name with
        | Some (ds, di) ->
            uses_lock := true;
            let spin = st.spin + ds and irq = st.irq + di in
            if spin < 0 || irq < 0 then
              note_local Warning line
                (Printf.sprintf "unbalanced %s: no matching acquire on this path"
                   name);
            { spin = max 0 (sat spin); irq = max 0 (sat irq) }
        | None ->
            sites :=
              { cs_callee = name; cs_state = st; cs_line = line; cs_assumed = false }
              :: !sites;
            st)
    | Ast.Ecall (callee, args) ->
        let st = eval st line callee in
        let st = List.fold_left (fun st a -> eval st line a) st args in
        indirect := (line, st) :: !indirect;
        List.iter
          (fun t ->
            sites :=
              { cs_callee = t; cs_state = st; cs_line = line; cs_assumed = true }
              :: !sites)
          taken_defined;
        st
    | _ -> List.fold_left (fun st a -> eval st line a) st (Ast.children e)
  in
  let rec stmts st body = List.fold_left stmt st body
  and stmt st (s : Ast.stmt) =
    let line = s.Ast.sloc.Loc.line in
    match s.Ast.skind with
    | Sexpr e -> eval st line e
    | Sdecl (_, _, Some e) -> eval st line e
    | Sdecl (_, _, None) -> st
    | Sif (c, a, b) ->
        let st = eval st line c in
        join_state (stmts st a) (stmts st b)
    | Swhile (c, body) ->
        let st = eval st line c in
        join_state st (stmts st body)
    | Sdo (body, c) ->
        let st = stmts st body in
        eval st line c
    | Sfor (init, cond, update, body) ->
        let st = match init with Some s -> stmt st s | None -> st in
        let st = match cond with Some e -> eval st line e | None -> st in
        let st' = stmts st body in
        let st' = match update with Some e -> eval st' line e | None -> st' in
        join_state st st'
    | Sreturn e ->
        let st = match e with Some e -> eval st line e | None -> st in
        if is_atomic st then
          note_local Warning line
            (Printf.sprintf "returns with %s on this path" (state_desc st));
        st
    | Sswitch (e, cases) ->
        let st = eval st line e in
        List.fold_left
          (fun acc case ->
            match case with
            | Ast.Case (_, body) | Ast.Default body ->
                join_state acc (stmts st body))
          st cases
    | Sgoto _ | Slabel _ | Sbreak | Scontinue -> st
    | Sblock body -> stmts st body
  in
  let final = stmts bottom fn.Ast.fbody in
  if is_atomic final then
    note_local Warning fn.Ast.floc_end.Loc.line
      (Printf.sprintf "function ends with %s" (state_desc final));
  {
    fs_name = fn.Ast.fname;
    fs_sites = List.rev !sites;
    fs_uses_lock = !uses_lock;
    fs_indirect = List.rev !indirect;
    fs_local = List.rev !local;
  }

let lock_pass ~file ~cg ~atomic_roots ~nucleus ~user () =
  let defined = Sset.of_list (Callgraph.defined cg) in
  let taken_defined =
    List.filter (fun n -> Sset.mem n defined) (Callgraph.address_taken cg)
  in
  let summaries =
    List.map (summarize_function ~taken_defined) (Ast.functions file)
  in
  let by_name =
    List.fold_left (fun m s -> Smap.add s.fs_name s m) Smap.empty summaries
  in
  (* Interprocedural entry contexts: the atomic state a function may be
     entered under, with the call chain that establishes it. *)
  let ctx : (string, lock_state * string list) Hashtbl.t = Hashtbl.create 64 in
  let entry name =
    Option.value ~default:(bottom, []) (Hashtbl.find_opt ctx name)
  in
  List.iter
    (fun root ->
      if Sset.mem root defined then
        Hashtbl.replace ctx root
          ({ spin = 0; irq = 1 }, [ root ^ " (interrupt entry)" ]))
    atomic_roots;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun fs ->
        let est, ewit = entry fs.fs_name in
        List.iter
          (fun cs ->
            if Sset.mem cs.cs_callee defined then begin
              let cand = add_state est cs.cs_state in
              if is_atomic cand then begin
                let cur, _ = entry cs.cs_callee in
                let merged = join_state cur cand in
                if merged <> cur then begin
                  Hashtbl.replace ctx cs.cs_callee
                    ( merged,
                      ewit @ [ Printf.sprintf "%s:%d" fs.fs_name cs.cs_line ] );
                  changed := true
                end
              end
            end)
          fs.fs_sites)
      summaries
  done;
  ignore by_name;
  let user_set = Sset.of_list user and nucleus_set = Sset.of_list nucleus in
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  List.iter
    (fun fs ->
      List.iter emit fs.fs_local;
      let est, ewit = entry fs.fs_name in
      let in_user = Sset.mem fs.fs_name user_set in
      (* raw spin primitives at user level become combolock semaphores *)
      if fs.fs_uses_lock && in_user then
        emit
          {
            f_pass = Lock_discipline;
            f_severity = Info;
            f_anchor = fs.fs_name;
            f_line = 0;
            f_message =
              "user-level function uses raw spin primitives; the runtime \
               converts them to combolock semaphore acquisitions";
            f_witness = [];
          };
      (* conservative note for every indirect call site *)
      List.iter
        (fun (line, st) ->
          let eff = add_state est st in
          emit
            {
              f_pass = Lock_discipline;
              f_severity = Info;
              f_anchor = fs.fs_name;
              f_line = line;
              f_message =
                (let targets =
                   match taken_defined with
                   | [] -> "no address-taken function in this file"
                   | ts -> String.concat ", " ts
                 in
                 Printf.sprintf
                   "indirect call (%s): assumed targets = [%s]; lock analysis \
                    treats every assumed target as callable here"
                   (state_desc eff) targets);
              f_witness = [];
            })
        fs.fs_indirect;
      List.iter
        (fun cs ->
          let eff = add_state est cs.cs_state in
          if is_atomic eff then begin
            let witness =
              ewit
              @ [ Printf.sprintf "%s:%d -> %s" fs.fs_name cs.cs_line cs.cs_callee ]
            in
            let assumed = if cs.cs_assumed then " (assumed indirect target)" else "" in
            if
              Sset.mem cs.cs_callee sleeping_primitives
              && not (Sset.mem cs.cs_callee defined)
            then
              emit
                {
                  f_pass = Lock_discipline;
                  f_severity = Error;
                  f_anchor = fs.fs_name;
                  f_line = cs.cs_line;
                  f_message =
                    Printf.sprintf "calls sleeping primitive %s while %s%s"
                      cs.cs_callee (state_desc eff) assumed;
                  f_witness = witness;
                }
            else if
              (* XPC crossing while atomic: a user-placed caller invoking
                 the kernel (an import or a nucleus function) cannot hold
                 a spinlock across the crossing — the paper's "never call
                 up with a spinlock held" rule seen from the other side. *)
              in_user
              && (not (Annot.is_macro cs.cs_callee))
              && lock_effect cs.cs_callee = None
              && ((not (Sset.mem cs.cs_callee defined))
                 || Sset.mem cs.cs_callee nucleus_set)
            then
              emit
                {
                  f_pass = Lock_discipline;
                  f_severity = Error;
                  f_anchor = fs.fs_name;
                  f_line = cs.cs_line;
                  f_message =
                    Printf.sprintf
                      "XPC crossing to %s while %s%s: the crossing can block \
                       and must not happen under a spinlock"
                      cs.cs_callee (state_desc eff) assumed;
                  f_witness = witness;
                }
            else if
              cs.cs_assumed && Sset.mem cs.cs_callee user_set
              && not in_user
            then
              emit
                {
                  f_pass = Lock_discipline;
                  f_severity = Error;
                  f_anchor = fs.fs_name;
                  f_line = cs.cs_line;
                  f_message =
                    Printf.sprintf
                      "indirect call while %s may target user-level %s \
                       (address-taken): upcall under a spinlock"
                      (state_desc eff) cs.cs_callee;
                  f_witness = witness;
                }
          end)
        fs.fs_sites)
    summaries;
  List.rev !findings

(* ================ pass 2: annotation soundness ======================= *)

let macro_of = function
  | Plan.Read -> "DECAF_RVAR"
  | Plan.Write -> "DECAF_WVAR"
  | Plan.Read_write -> "DECAF_RWVAR"

let annot_pass ~file ~cg ~annots ~user_funcs ~library_funcs () =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let all_fields =
    List.fold_left
      (fun acc (s : Ast.struct_def) ->
        List.fold_left
          (fun acc (f : Ast.field) -> Sset.add f.Ast.fname acc)
          acc s.Ast.sfields)
      Sset.empty (Ast.structs file)
  in
  List.iter
    (fun (va : Annot.var_annot) ->
      let macro = macro_of va.Annot.va_access in
      if not (Sset.mem va.Annot.va_field all_fields) then
        emit
          {
            f_pass = Annotation_soundness;
            f_severity = Error;
            f_anchor = va.Annot.va_function;
            f_line = va.Annot.va_line;
            f_message =
              Printf.sprintf
                "stale annotation %s(%s): field '%s' no longer exists in any \
                 struct"
                macro va.Annot.va_path va.Annot.va_field;
            f_witness = [];
          }
      else begin
        let reach = Callgraph.reachable cg ~roots:[ va.Annot.va_function ] in
        let act_r, act_w =
          match
            List.find_opt
              (fun (u : Marshalgen.field_use) ->
                u.Marshalgen.fu_field = va.Annot.va_field)
              (Marshalgen.field_accesses file ~funcs:reach)
          with
          | Some u -> (u.Marshalgen.fu_read, u.Marshalgen.fu_written)
          | None -> (false, false)
        in
        let ann_r, ann_w =
          match va.Annot.va_access with
          | Plan.Read -> (true, false)
          | Plan.Write -> (false, true)
          | Plan.Read_write -> (true, true)
        in
        let narrow_r = act_r && not ann_r and narrow_w = act_w && not ann_w in
        let unseen_r = ann_r && not act_r and unseen_w = ann_w && not act_w in
        if narrow_r || narrow_w then
          emit
            {
              f_pass = Annotation_soundness;
              f_severity = Error;
              f_anchor = va.Annot.va_function;
              f_line = va.Annot.va_line;
              f_message =
                Printf.sprintf
                  "annotation %s(%s) is too narrow: code reachable from %s %s \
                   the field"
                  macro va.Annot.va_path va.Annot.va_function
                  (match (narrow_r, narrow_w) with
                  | true, true -> "also reads and writes"
                  | false, true -> "also writes"
                  | _ -> "also reads");
              f_witness = reach;
            }
        else if unseen_r || unseen_w then
          emit
            {
              f_pass = Annotation_soundness;
              f_severity = Warning;
              f_anchor = va.Annot.va_function;
              f_line = va.Annot.va_line;
              f_message =
                Printf.sprintf
                  "annotation %s(%s): no %s of '%s' is reachable from %s to \
                   witness it"
                  macro va.Annot.va_path
                  (match (unseen_r, unseen_w) with
                  | true, true -> "read or write"
                  | true, false -> "read"
                  | _ -> "write")
                  va.Annot.va_field va.Annot.va_function;
              f_witness = [];
            }
      end)
    annots.Annot.vars;
  (* Missing annotations, at struct granularity: after Java conversion
     the slicer only sees the library C bodies plus the annotations.
     Whatever the ground-truth plan (all user bodies) covers beyond that
     view would silently drop out of the marshal plan — the §3.2.4
     evolution hazard. *)
  let full = Marshalgen.plans file ~user_funcs ~annots in
  let post = Marshalgen.plans file ~user_funcs:library_funcs ~annots in
  List.iter
    (fun p ->
      let name = Plan.type_id p in
      let q = List.find_opt (fun q -> Plan.type_id q = name) post in
      let covered dir f =
        match q with
        | None -> false
        | Some q -> if dir then Plan.copies_in q f else Plan.copies_out q f
      in
      let lost =
        List.filter_map
          (fun (f, _) ->
            let lost_in = Plan.copies_in p f && not (covered true f) in
            let lost_out = Plan.copies_out p f && not (covered false f) in
            match (lost_in, lost_out) with
            | false, false -> None
            | true, true -> Some (f ^ "(in+out)")
            | true, false -> Some (f ^ "(in)")
            | false, true -> Some (f ^ "(out)"))
          (Plan.fields p)
      in
      if lost <> [] then
        let line =
          match Ast.find_struct file name with
          | Some s -> s.Ast.sloc.Loc.line
          | None -> 0
        in
        emit
          {
            f_pass = Annotation_soundness;
            f_severity = Warning;
            f_anchor = name;
            f_line = line;
            f_message =
              Printf.sprintf
                "missing annotations: after Java conversion the slicer loses \
                 sight of struct %s fields [%s]; declare them with \
                 DECAF_R/W/RWVAR"
                name (String.concat " " lost);
            f_witness = [];
          })
    full;
  List.rev !findings

(* ================ pass 3: marshal boundary =========================== *)

let marshal_pass ~file ~spec ~const_env ~crossing_seeds () =
  let findings = ref [] in
  let emit f = findings := f :: !findings in
  let tab = Symtab.build file in
  (* closure of structs reachable over the XDR spec from the seeds *)
  let rec close seen name =
    if Sset.mem name seen then seen
    else
      let seen = Sset.add name seen in
      match Xdrspec.find_struct spec name with
      | None -> seen
      | Some s ->
          List.fold_left
            (fun seen (f : Xdrspec.xdr_field) ->
              let rec refs = function
                | Xdrspec.Xstruct_ref n -> [ n ]
                | Xdrspec.Xoptional t | Xdrspec.Xarray (t, _) -> refs t
                | _ -> []
              in
              List.fold_left close seen (refs f.Xdrspec.xf_type))
            seen s.Xdrspec.xs_fields
  in
  let crossing = List.fold_left close Sset.empty crossing_seeds in
  List.iter
    (fun (s : Ast.struct_def) ->
      if Sset.mem s.Ast.sname crossing then
        List.iter
          (fun (f : Ast.field) ->
            let has kind =
              List.exists
                (fun (a : Ast.attr) -> a.Ast.attr_name = kind)
                f.Ast.fattrs
            in
            (match Symtab.resolve tab f.Ast.ftyp with
            | Ast.Tptr _ when not (has "exp" || has "opt") ->
                emit
                  {
                    f_pass = Marshal_boundary;
                    f_severity = Error;
                    f_anchor = s.Ast.sname;
                    f_line = s.Ast.sloc.Loc.line;
                    f_message =
                      Printf.sprintf
                        "pointer field '%s' of crossing struct %s has no \
                         exp/opt attribute: XDR would marshal it unsoundly \
                         as optional data of unknown extent"
                        f.Ast.fname s.Ast.sname;
                    f_witness = [];
                  }
            | _ -> ());
            List.iter
              (fun (a : Ast.attr) ->
                match (a.Ast.attr_name, a.Ast.attr_arg) with
                | "exp", Some arg
                  when int_of_string_opt arg = None
                       && not (List.mem_assoc arg const_env) ->
                    emit
                      {
                        f_pass = Marshal_boundary;
                        f_severity = Warning;
                        f_anchor = s.Ast.sname;
                        f_line = s.Ast.sloc.Loc.line;
                        f_message =
                          Printf.sprintf
                            "exp(%s) on field '%s': length constant is not in \
                             const_env; XDR generation silently defaults it \
                             to 16"
                            arg f.Ast.fname;
                        f_witness = [];
                      }
                | "exp", None ->
                    emit
                      {
                        f_pass = Marshal_boundary;
                        f_severity = Error;
                        f_anchor = s.Ast.sname;
                        f_line = s.Ast.sloc.Loc.line;
                        f_message =
                          Printf.sprintf "exp attribute on field '%s' has no \
                                          length argument"
                            f.Ast.fname;
                        f_witness = [];
                      }
                | _ -> ())
              f.Ast.fattrs)
          s.Ast.sfields)
    (Ast.structs file);
  List.rev !findings

(* ================ pass 4: error flow ================================= *)

let errflow_pass ~file ~extra () =
  let syntactic = Errcheck.find_violations file ~extra in
  let flow = Errcheck.flow_violations file ~extra in
  let syn_findings =
    List.map
      (fun (v : Errcheck.violation) ->
        {
          f_pass = Error_flow;
          f_severity = Error;
          f_anchor = v.Errcheck.v_function;
          f_line = v.Errcheck.v_line;
          f_message =
            (match v.Errcheck.v_kind with
            | Errcheck.Ignored_return ->
                Printf.sprintf "error return of %s ignored" v.Errcheck.v_callee
            | Errcheck.Unchecked_variable var ->
                Printf.sprintf "result of %s stored in '%s' but never examined"
                  v.Errcheck.v_callee var);
          f_witness = [];
        })
      syntactic
  in
  let already_reported fn line =
    List.exists
      (fun (v : Errcheck.violation) ->
        v.Errcheck.v_function = fn && v.Errcheck.v_line = line)
      syntactic
  in
  let flow_findings =
    List.filter_map
      (fun (fv : Errcheck.flow_violation) ->
        match fv.Errcheck.fv_kind with
        | Errcheck.Overwritten first_line ->
            Some
              {
                f_pass = Error_flow;
                f_severity = Error;
                f_anchor = fv.Errcheck.fv_function;
                f_line = fv.Errcheck.fv_line;
                f_message =
                  Printf.sprintf
                    "untested error result of %s (stored in '%s' at line %d) \
                     is overwritten before any test"
                    fv.Errcheck.fv_callee fv.Errcheck.fv_var first_line;
                f_witness = [];
              }
        | Errcheck.Dropped ->
            if already_reported fv.Errcheck.fv_function fv.Errcheck.fv_line then
              None (* the syntactic scan already owns this site *)
            else
              Some
                {
                  f_pass = Error_flow;
                  f_severity = Error;
                  f_anchor = fv.Errcheck.fv_function;
                  f_line = fv.Errcheck.fv_line;
                  f_message =
                    Printf.sprintf
                      "error result of %s stored in '%s' is dropped on some \
                       path (tested on one branch, lost at a merge or return)"
                      fv.Errcheck.fv_callee fv.Errcheck.fv_var;
                  f_witness = [];
                })
      flow
  in
  syn_findings @ flow_findings

(* ================ pass 5: unvalidated inbound fields ================= *)

(* The static counterpart of the runtime's Xpc.Guard: every field the
   marshal plan copies IN (user level -> kernel) arrives from untrusted
   code and must be examined by kernel-placed code before it is
   trusted.  "Examined" means a relational comparison against it, a
   switch over it, or passing it to a helper whose name marks it as a
   validator (contains "valid", "check" or "clamp") — in a function the
   partition keeps at kernel level, because a check that runs at user
   level is an attacker checking its own homework.  An inbound field no
   kernel-placed function ever examines is exactly the hole the
   malicious campaign's fuzz attacks drive through. *)

let inbound_pass ~file ~plans ~kernel_funcs () =
  let validated = ref Sset.empty in
  let consumed = ref Sset.empty in
  let rec field_names acc = function
    | Ast.Efield (base, f) | Ast.Earrow (base, f) -> field_names (f :: acc) base
    | Ast.Eindex (e, _) | Ast.Eunop (_, e) | Ast.Ecast (_, e) ->
        field_names acc e
    | _ -> acc
  in
  let note e = List.iter (fun f -> validated := Sset.add f !validated)
      (field_names [] e)
  in
  let is_validator name =
    let l = String.lowercase_ascii name in
    contains_sub l "valid" || contains_sub l "check" || contains_sub l "clamp"
  in
  let scan () (e : Ast.expr) =
    match e with
    | Ast.Ebinop ((Ast.Lt | Ast.Gt | Ast.Le | Ast.Ge | Ast.Eq | Ast.Ne), a, b)
      ->
        note a;
        note b
    | Ast.Ecall (Ast.Eident callee, args) when is_validator callee ->
        List.iter note args
    | Ast.Efield (_, f) | Ast.Earrow (_, f) ->
        consumed := Sset.add f !consumed
    | _ -> ()
  in
  let scan_switch (s : Ast.stmt) =
    match s.Ast.skind with Ast.Sswitch (e, _) -> note e | _ -> ()
  in
  List.iter
    (fun name ->
      match Ast.find_function file name with
      | Some fn ->
          Ast.fold_exprs_stmts scan () fn.Ast.fbody;
          List.iter scan_switch (Ast.stmts fn.Ast.fbody)
      | None -> ())
    kernel_funcs;
  let findings = ref [] in
  List.iter
    (fun p ->
      let name = Plan.type_id p in
      let line =
        match Ast.find_struct file name with
        | Some s -> s.Ast.sloc.Loc.line
        | None -> 0
      in
      List.iter
        (fun (f, _) ->
          (* only fields kernel-placed code actually consumes: an
             inbound field the kernel never touches cannot be driven
             through anything *)
          if
            Plan.copies_in p f
            && Sset.mem f !consumed
            && not (Sset.mem f !validated)
          then
            findings :=
              {
                f_pass = Inbound_validation;
                f_severity = Warning;
                f_anchor = name;
                f_line = line;
                f_message =
                  Printf.sprintf
                    "unvalidated inbound field: '%s' of crossing struct %s is \
                     copied in from user level and consumed by kernel-placed \
                     code, but no kernel-placed function compares or \
                     range-checks it; derive a Guard rule or validate before \
                     applying"
                    f name;
                f_witness = [];
              }
              :: !findings)
        (Plan.fields p))
    plans;
  List.rev !findings

(* ===================== driver ======================================== *)

let analyze ?(extra_errfns = []) ~file ~partition ~annots ~spec ~const_env
    ~decaf_funcs ~library_funcs () =
  let cg = Callgraph.build file in
  let atomic_roots = default_atomic_roots partition.Partition.config in
  let user_funcs = partition.Partition.user in
  ignore decaf_funcs;
  let lock =
    lock_pass ~file ~cg ~atomic_roots ~nucleus:partition.Partition.nucleus
      ~user:user_funcs ()
  in
  let annot = annot_pass ~file ~cg ~annots ~user_funcs ~library_funcs () in
  let plans = Marshalgen.plans file ~user_funcs ~annots in
  let crossing_seeds = List.map Decaf_xpc.Marshal_plan.type_id plans in
  let marshal = marshal_pass ~file ~spec ~const_env ~crossing_seeds () in
  let errflow = errflow_pass ~file ~extra:extra_errfns () in
  (* only the nucleus is trusted: the driver library's C bodies run at
     user level after conversion, so their checks prove nothing *)
  let inbound =
    inbound_pass ~file ~plans ~kernel_funcs:partition.Partition.nucleus ()
  in
  let order f =
    (f.f_line, pass_name f.f_pass, f.f_anchor, f.f_message)
  in
  List.sort
    (fun a b -> compare (order a) (order b))
    (lock @ annot @ marshal @ errflow @ inbound)

let violations findings =
  List.filter (fun f -> f.f_severity = Error || f.f_severity = Warning) findings

let apply_waivers ~driver ~waivers findings =
  let matches w f =
    w.w_pass = f.f_pass && w.w_anchor = f.f_anchor && w.w_line = f.f_line
  in
  let viols = violations findings in
  let waived, unwaived =
    List.partition_map
      (fun f ->
        match List.find_opt (fun w -> matches w f) waivers with
        | Some w -> Left (f, w)
        | None -> Right f)
      viols
  in
  {
    r_driver = driver;
    r_findings = findings;
    r_waived = waived;
    r_unwaived = unwaived;
    r_assumptions = List.filter (fun f -> f.f_severity = Info) findings;
    r_unused_waivers =
      List.filter (fun w -> not (List.exists (matches w) viols)) waivers;
  }

(* ===================== rendering ===================================== *)

let to_text r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "decaf-lint %s: %d findings — %d unwaived violations, %d waived, %d \
        assumptions%s\n"
       r.r_driver
       (List.length r.r_findings)
       (List.length r.r_unwaived)
       (List.length r.r_waived)
       (List.length r.r_assumptions)
       (match r.r_unused_waivers with
       | [] -> ""
       | l -> Printf.sprintf ", %d UNUSED waivers" (List.length l)));
  let reason_of f =
    List.find_map
      (fun (f', w) -> if f' == f then Some w.w_reason else None)
      r.r_waived
  in
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "  [%-7s] %-7s %s:%d  %s\n" (pass_name f.f_pass)
           (severity_name f.f_severity) f.f_anchor f.f_line f.f_message);
      (match reason_of f with
      | Some reason ->
          Buffer.add_string buf (Printf.sprintf "            waived: %s\n" reason)
      | None -> ());
      if f.f_witness <> [] && f.f_severity = Error then
        Buffer.add_string buf
          (Printf.sprintf "            via: %s\n"
             (String.concat " -> " f.f_witness)))
    r.r_findings;
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  UNUSED waiver [%s] %s:%d (%s)\n" (pass_name w.w_pass)
           w.w_anchor w.w_line w.w_reason))
    r.r_unused_waivers;
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json r =
  let buf = Buffer.create 2048 in
  let waiver_of f =
    List.find_map (fun (f', w) -> if f' == f then Some w else None) r.r_waived
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"driver\":\"%s\",\"findings\":[" (json_escape r.r_driver));
  List.iteri
    (fun i f ->
      if i > 0 then Buffer.add_char buf ',';
      let waived, reason =
        match waiver_of f with
        | Some w -> (true, Printf.sprintf ",\"reason\":\"%s\"" (json_escape w.w_reason))
        | None -> (false, "")
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"pass\":\"%s\",\"severity\":\"%s\",\"anchor\":\"%s\",\"line\":%d,\
            \"message\":\"%s\",\"witness\":[%s],\"waived\":%b%s}"
           (pass_name f.f_pass) (severity_name f.f_severity)
           (json_escape f.f_anchor) f.f_line (json_escape f.f_message)
           (String.concat ","
              (List.map (fun w -> "\"" ^ json_escape w ^ "\"") f.f_witness))
           waived reason))
    r.r_findings;
  Buffer.add_string buf
    (Printf.sprintf
       "],\"summary\":{\"findings\":%d,\"unwaived\":%d,\"waived\":%d,\
        \"assumptions\":%d,\"unused_waivers\":%d}}"
       (List.length r.r_findings)
       (List.length r.r_unwaived)
       (List.length r.r_waived)
       (List.length r.r_assumptions)
       (List.length r.r_unused_waivers));
  Buffer.contents buf
