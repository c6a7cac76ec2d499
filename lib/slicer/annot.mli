(** DriverSlicer annotations.

    Two kinds appear in a legacy driver (§2.4, §3.2.4):

    - field attributes on struct members guiding marshaling, e.g.
      [__attribute__((exp(PCI_LEN)))] marking a pointer as a
      fixed-length array;
    - [DECAF_RVAR(x); / DECAF_WVAR(x); / DECAF_RWVAR(x);] statements in
      entry-point functions declaring that the decaf driver reads and/or
      writes variable [x]. *)

type field_annot = {
  fa_struct : string;
  fa_field : string;
  fa_kind : string;  (** attribute name, e.g. "exp" or "opt" *)
  fa_arg : string option;
}

type var_annot = {
  va_function : string;  (** entry point containing the annotation *)
  va_access : Decaf_xpc.Marshal_plan.access;
  va_path : string;  (** annotated expression, e.g. "adapter->msg_enable" *)
  va_field : string;  (** last path component *)
  va_line : int;  (** source line of the annotation statement *)
}

type t = { fields : field_annot list; vars : var_annot list }

val collect : Decaf_minic.Ast.file -> t

val is_macro : string -> bool
(** Whether a called name is an annotation macro ([DECAF_]-prefixed):
    an annotation, not a field access or a call across the boundary. *)

val count_lines : t -> int
(** Number of annotation sites — the "DriverSlicer Annotations" column of
    Table 2. *)
