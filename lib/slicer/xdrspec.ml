module Ast = Decaf_minic.Ast
module Symtab = Decaf_minic.Symtab

type xdr_type =
  | Xint
  | Xuint
  | Xhyper
  | Xbool
  | Xopaque of int
  | Xstring
  | Xarray of xdr_type * int
  | Xoptional of xdr_type
  | Xstruct_ref of string

type xdr_field = { xf_name : string; xf_type : xdr_type }

type xdr_struct = {
  xs_name : string;
  xs_fields : xdr_field list;
  xs_synthetic : bool;
}

type spec = {
  xs_structs : xdr_struct list;
  xs_typedefs : (string * string) list;
}

let base_name = function
  | Ast.Tnamed n -> n
  | Ast.Tint { kind = Ast.Iint; unsigned = true } -> "uint"
  | Ast.Tint { kind = Ast.Iint; _ } -> "int"
  | Ast.Tint { kind = Ast.Ichar; _ } -> "char"
  | Ast.Tint { kind = Ast.Ishort; unsigned = true } -> "ushort"
  | Ast.Tint { kind = Ast.Ishort; _ } -> "short"
  | Ast.Tint { kind = Ast.Ilong; _ } -> "long"
  | Ast.Tint { kind = Ast.Ilonglong; _ } -> "hyper"
  | Ast.Tstruct n -> n
  | Ast.Tvoid -> "void"
  | Ast.Tptr _ | Ast.Tarray _ -> "ptr"

let scalar_of_int ~unsigned = function
  | Ast.Ichar -> Xopaque 1
  | Ast.Ishort | Ast.Iint | Ast.Ilong ->
      if unsigned then Xuint else Xint
  | Ast.Ilonglong -> Xhyper

(* Map a resolved C type (no typedefs) to an XDR scalar/ref; pointers are
   handled by the caller. *)
let rec of_ctype tab (t : Ast.typ) : xdr_type =
  match Symtab.resolve tab t with
  | Ast.Tvoid -> Xuint
  | Ast.Tint { kind; unsigned } -> scalar_of_int ~unsigned kind
  | Ast.Tnamed n ->
      (* unknown typedef: assume a 32-bit handle *)
      if n = "bool" then Xbool else Xuint
  | Ast.Tstruct n -> Xstruct_ref n
  | Ast.Tarray (Ast.Tint { kind = Ast.Ichar; _ }, Some n) -> Xopaque n
  | Ast.Tarray (inner, Some n) -> Xarray (of_ctype tab inner, n)
  | Ast.Tarray (inner, None) -> Xarray (of_ctype tab inner, 0)
  | Ast.Tptr inner -> Xoptional (of_ctype tab inner)

let lookup_const env name =
  match int_of_string_opt name with
  | Some n -> n
  | None -> (
      match List.assoc_opt name env with
      | Some n -> n
      | None -> 16 (* unknown length constant: conservative default *))

let exp_annotation (f : Ast.field) =
  List.find_map
    (fun (a : Ast.attr) ->
      if a.Ast.attr_name = "exp" then a.Ast.attr_arg else None)
    f.Ast.fattrs

let generate (file : Ast.file) ~const_env =
  let tab = Symtab.build file in
  let synthetic : (string, xdr_struct) Hashtbl.t = Hashtbl.create 8 in
  let typedefs = ref [] in
  let convert_field (f : Ast.field) =
    match (exp_annotation f, Symtab.resolve tab f.Ast.ftyp) with
    | Some len_name, Ast.Tptr elem ->
        (* Figure 3: pointer-to-array becomes pointer-to-wrapper-struct. *)
        let n = lookup_const const_env len_name in
        let elem_name = base_name elem in
        let wrapper = Printf.sprintf "array%d_%s" n elem_name in
        let ptr_name = Printf.sprintf "array%d_%s_ptr" n elem_name in
        if not (Hashtbl.mem synthetic wrapper) then begin
          Hashtbl.replace synthetic wrapper
            {
              xs_name = wrapper;
              xs_fields =
                [ { xf_name = "array"; xf_type = Xarray (of_ctype tab elem, n) } ];
              xs_synthetic = true;
            };
          typedefs := (ptr_name, wrapper) :: !typedefs
        end;
        { xf_name = f.Ast.fname; xf_type = Xoptional (Xstruct_ref wrapper) }
    | _, resolved -> { xf_name = f.Ast.fname; xf_type = of_ctype tab resolved }
  in
  let structs =
    List.map
      (fun (s : Ast.struct_def) ->
        {
          xs_name = s.Ast.sname;
          xs_fields = List.map convert_field s.Ast.sfields;
          xs_synthetic = false;
        })
      (Ast.structs file)
  in
  let synth = Hashtbl.fold (fun _ s acc -> s :: acc) synthetic [] in
  {
    xs_structs = List.sort (fun a b -> compare a.xs_name b.xs_name) synth @ structs;
    xs_typedefs = List.rev !typedefs;
  }

let find_struct spec name =
  List.find_opt (fun s -> s.xs_name = name) spec.xs_structs

let rec type_to_decl name = function
  | Xint -> Printf.sprintf "int %s" name
  | Xuint -> Printf.sprintf "unsigned int %s" name
  | Xhyper -> Printf.sprintf "hyper %s" name
  | Xbool -> Printf.sprintf "bool %s" name
  | Xopaque n -> Printf.sprintf "opaque %s[%d]" name n
  | Xstring -> Printf.sprintf "string %s<>" name
  | Xarray (t, n) -> type_to_decl (Printf.sprintf "%s[%d]" name n) t
  | Xoptional t -> type_to_decl ("*" ^ name) t
  | Xstruct_ref s -> Printf.sprintf "struct %s %s" s name

let to_string spec =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Printf.sprintf "struct %s {\n" s.xs_name);
      List.iter
        (fun f ->
          Buffer.add_string buf
            (Printf.sprintf "    %s;\n" (type_to_decl f.xf_name f.xf_type)))
        s.xs_fields;
      Buffer.add_string buf "};\n\n")
    spec.xs_structs;
  List.iter
    (fun (ptr, wrapper) ->
      Buffer.add_string buf
        (Printf.sprintf "typedef struct %s *%s;\n" wrapper ptr))
    spec.xs_typedefs;
  Buffer.contents buf

let pad4 n = (n + 3) land lnot 3

let rec size_of_type spec ~seen = function
  | Xint | Xuint | Xbool -> 4
  | Xhyper -> 8
  | Xopaque n -> pad4 n
  | Xstring -> 4 + 64 (* estimate: length word plus nominal payload *)
  | Xarray (t, n) -> n * size_of_type spec ~seen t
  | Xoptional t -> 4 + size_of_type spec ~seen t
  | Xstruct_ref name ->
      if List.mem name seen then 4 (* recursive reference marshaled once *)
      else (
        match find_struct spec name with
        | Some s ->
            List.fold_left
              (fun acc f -> acc + size_of_type spec ~seen:(name :: seen) f.xf_type)
              0 s.xs_fields
        | None -> 4)

let wire_size spec name = size_of_type spec ~seen:[] (Xstruct_ref name)
