module Ast = Decaf_minic.Ast
module Plan = Decaf_xpc.Marshal_plan

type field_use = { fu_field : string; fu_read : bool; fu_written : bool }

module Smap = Map.Make (String)

(* The field a store lands on, with the operands the store reads on the
   way: [x->f = v] and [x->f[i] = v] both store into [f], reading [x]
   (and [i]). *)
let rec store_target = function
  | Ast.Efield (base, f) | Ast.Earrow (base, f) -> Some (f, [ base ])
  | Ast.Eindex (e, idx) ->
      Option.map (fun (f, operands) -> (f, idx :: operands)) (store_target e)
  | _ -> None

(* Each statement's expressions are walked from the top, not through
   Ast.fold_expr: the generic fold would also visit a store's target and
   an annotation macro's argument as plain reads. *)
let field_accesses (file : Ast.file) ~funcs =
  let uses = ref Smap.empty in
  let note field ~read ~write =
    let r, w =
      Option.value ~default:(false, false) (Smap.find_opt field !uses)
    in
    uses := Smap.add field (r || read, w || write) !uses
  in
  let rec access e =
    match e with
    | Ast.Efield (base, f) | Ast.Earrow (base, f) ->
        note f ~read:true ~write:false;
        access base
    | Ast.Eassign (op, lhs, rhs) ->
        (* compound assignment also reads the field *)
        store lhs ~read:(op <> None);
        access rhs
    | Ast.Epostincr lhs | Ast.Epostdecr lhs | Ast.Epreincr lhs
    | Ast.Epredecr lhs ->
        store lhs ~read:true
    | Ast.Ecall (Ast.Eident name, _) when Annot.is_macro name ->
        (* annotation macro, not a real access: handled by Annot *)
        ()
    | _ -> List.iter access (Ast.children e)
  and store lhs ~read =
    match store_target lhs with
    | Some (f, operands) ->
        note f ~read ~write:true;
        List.iter access operands
    | None -> access lhs
  in
  List.iter
    (fun name ->
      match Ast.find_function file name with
      | Some fn ->
          List.iter access
            (List.concat_map Ast.exprs_of (Ast.stmts fn.Ast.fbody))
      | None -> ())
    funcs;
  List.map
    (fun (fu_field, (fu_read, fu_written)) -> { fu_field; fu_read; fu_written })
    (Smap.bindings !uses)

let plans (file : Ast.file) ~user_funcs ~annots =
  let access_of u =
    match (u.fu_read, u.fu_written) with
    | true, true -> Plan.Read_write
    | false, true -> Plan.Write
    | _, false -> Plan.Read
  in
  let accesses =
    List.map
      (fun u -> (u.fu_field, access_of u))
      (field_accesses file ~funcs:user_funcs)
    @ List.map
        (fun (va : Annot.var_annot) -> (va.Annot.va_field, va.Annot.va_access))
        annots.Annot.vars
  in
  List.filter_map
    (fun (s : Ast.struct_def) ->
      let declared (name, _) =
        List.exists (fun (f : Ast.field) -> f.Ast.fname = name) s.Ast.sfields
      in
      let merged =
        List.fold_left
          (fun acc (name, a) ->
            Plan.union acc (Plan.make ~type_id:s.Ast.sname [ (name, a) ]))
          (Plan.make ~type_id:s.Ast.sname [])
          (List.filter declared accesses)
      in
      if Plan.fields merged = [] then None else Some merged)
    (Ast.structs file)

(* --- generated code text --- *)

let c_marshal_call spec name = function
  | Xdrspec.Xint -> Printf.sprintf "xdr_int(xdrs, &objp->%s)" name
  | Xdrspec.Xuint -> Printf.sprintf "xdr_u_int(xdrs, &objp->%s)" name
  | Xdrspec.Xhyper -> Printf.sprintf "xdr_hyper(xdrs, &objp->%s)" name
  | Xdrspec.Xbool -> Printf.sprintf "xdr_bool(xdrs, &objp->%s)" name
  | Xdrspec.Xopaque n -> Printf.sprintf "xdr_opaque(xdrs, objp->%s, %d)" name n
  | Xdrspec.Xstring -> Printf.sprintf "xdr_string(xdrs, &objp->%s, ~0)" name
  | Xdrspec.Xarray (t, n) ->
      Printf.sprintf "xdr_vector(xdrs, (char *)objp->%s, %d, sizeof(*objp->%s), (xdrproc_t)%s)"
        name n name
        (match t with
        | Xdrspec.Xint -> "xdr_int"
        | Xdrspec.Xuint -> "xdr_u_int"
        | Xdrspec.Xhyper -> "xdr_hyper"
        | _ -> "xdr_u_int")
  | Xdrspec.Xoptional t ->
      Printf.sprintf "xdr_pointer(xdrs, (char **)&objp->%s, sizeof(*objp->%s), (xdrproc_t)%s)"
        name name
        (match t with
        | Xdrspec.Xstruct_ref s -> "xdr_" ^ s
        | _ -> "xdr_u_int")
  | Xdrspec.Xstruct_ref s ->
      ignore spec;
      Printf.sprintf "xdr_%s(xdrs, &objp->%s)" s name

let c_marshal_code spec (s : Xdrspec.xdr_struct) =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "bool_t\nxdr_%s(XDR *xdrs, %s *objp)\n{\n" s.Xdrspec.xs_name
       s.Xdrspec.xs_name);
  Buffer.add_string buf
    "\t/* object tracker: reuse an existing copy if one is registered */\n";
  Buffer.add_string buf
    (Printf.sprintf "\tobjp = decaf_objtracker_lookup(xdrs, objp, \"%s\");\n"
       s.Xdrspec.xs_name);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "\tif (!%s)\n\t\treturn FALSE;\n"
           (c_marshal_call spec f.Xdrspec.xf_name f.Xdrspec.xf_type)))
    s.Xdrspec.xs_fields;
  Buffer.add_string buf "\treturn TRUE;\n}\n";
  Buffer.contents buf

let java_type = function
  | Xdrspec.Xint | Xdrspec.Xuint -> "int"
  | Xdrspec.Xhyper -> "long"
  | Xdrspec.Xbool -> "boolean"
  | Xdrspec.Xopaque _ -> "byte[]"
  | Xdrspec.Xstring -> "String"
  | Xdrspec.Xarray (Xdrspec.Xhyper, _) -> "long[]"
  | Xdrspec.Xarray _ -> "int[]"
  | Xdrspec.Xoptional (Xdrspec.Xstruct_ref s) | Xdrspec.Xstruct_ref s -> s
  | Xdrspec.Xoptional _ -> "Integer"

let java_class_code (s : Xdrspec.xdr_struct) =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "public class %s implements XdrAble {\n" s.Xdrspec.xs_name);
  List.iter
    (fun f ->
      Buffer.add_string buf
        (Printf.sprintf "    public %s %s;\n" (java_type f.Xdrspec.xf_type)
           f.Xdrspec.xf_name))
    s.Xdrspec.xs_fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let java_marshal_code spec (s : Xdrspec.xdr_struct) =
  ignore spec;
  let buf = Buffer.create 512 in
  let cls = s.Xdrspec.xs_name in
  Buffer.add_string buf
    (Printf.sprintf "public void xdrEncode(XdrEncodingStream xdr) {\n");
  Buffer.add_string buf
    (Printf.sprintf "    JavaOT.note_encoded(this, \"%s\");\n" cls);
  List.iter
    (fun f ->
      let name = f.Xdrspec.xf_name in
      let call =
        match f.Xdrspec.xf_type with
        | Xdrspec.Xint | Xdrspec.Xuint -> Printf.sprintf "xdr.xdrEncodeInt(%s)" name
        | Xdrspec.Xhyper -> Printf.sprintf "xdr.xdrEncodeLong(%s)" name
        | Xdrspec.Xbool -> Printf.sprintf "xdr.xdrEncodeBoolean(%s)" name
        | Xdrspec.Xopaque n ->
            Printf.sprintf "xdr.xdrEncodeOpaque(%s, %d)" name n
        | Xdrspec.Xstring -> Printf.sprintf "xdr.xdrEncodeString(%s)" name
        | Xdrspec.Xarray _ -> Printf.sprintf "xdr.xdrEncodeIntVector(%s)" name
        | Xdrspec.Xoptional (Xdrspec.Xstruct_ref _) | Xdrspec.Xstruct_ref _ ->
            Printf.sprintf "JavaOT.encode_shared(xdr, %s)" name
        | Xdrspec.Xoptional _ -> Printf.sprintf "xdr.xdrEncodeInt(%s)" name
      in
      Buffer.add_string buf (Printf.sprintf "    %s;\n" call))
    s.Xdrspec.xs_fields;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
