(** Marshaling-code generation (§3.2.3).

    From the driver source and the partition, computes per-structure
    {!Decaf_xpc.Marshal_plan} values: a field is copied toward user level
    when user-mode code reads it and copied back when user-mode code
    writes it. [DECAF_*VAR] annotations force fields into the plan even
    when the analysis cannot see the access (the Java-side accesses of
    §3.2.4 are invisible to a C analysis).

    Also emits the text of rpcgen-style C and jrpcgen-style Java
    marshaling routines and the generated Java container classes, so the
    tooling's output can be inspected and measured. *)

type field_use = { fu_field : string; fu_read : bool; fu_written : bool }

val field_accesses :
  Decaf_minic.Ast.file -> funcs:string list -> field_use list
(** Union of struct-field accesses across the named functions' bodies,
    sorted by field name. A store writes the field it lands on, through
    any array index: [x->f = v], [x->f[i] = v], [x->f[i] op= v] and
    [x->f[i]++] all write [f], and the compound and increment forms also
    read it. The base and index operands of a store ([x], [i]) are
    reads, as is every other field access; [DECAF_*VAR] annotations are
    not accesses. The plans, lint's annotation-soundness check and its
    missing-annotation diff all read this one analysis. *)

val plans :
  Decaf_minic.Ast.file ->
  user_funcs:string list ->
  annots:Annot.t ->
  Decaf_xpc.Marshal_plan.t list
(** One plan per struct that user-mode code touches. *)

val c_marshal_code : Xdrspec.spec -> Xdrspec.xdr_struct -> string
(** rpcgen-style xdr_<struct> routine text. *)

val java_marshal_code : Xdrspec.spec -> Xdrspec.xdr_struct -> string
(** jrpcgen-style class with xdrEncode/xdrDecode and object-tracker
    calls. *)

val java_class_code : Xdrspec.xdr_struct -> string
(** The generated container class of public fields (§3.2.3). *)
