(** XDR interface-specification generation (§3.2.2).

    XDR is not C: it has no pointers-to-arrays, so DriverSlicer rewrites
    a field like

    {v uint32_t * __attribute__((exp(PCI_LEN))) config_space; v}

    into a synthetic wrapper structure holding a fixed-length array plus
    a pointer typedef — the paper's Figure 3 — preserving the in-memory
    layout. C [long long] becomes XDR [hyper]. *)

type xdr_type =
  | Xint
  | Xuint
  | Xhyper
  | Xbool
  | Xopaque of int  (** fixed-length opaque bytes *)
  | Xstring
  | Xarray of xdr_type * int
  | Xoptional of xdr_type  (** XDR optional-data, used for pointers *)
  | Xstruct_ref of string

type xdr_field = { xf_name : string; xf_type : xdr_type }

type xdr_struct = {
  xs_name : string;
  xs_fields : xdr_field list;
  xs_synthetic : bool;  (** created by the array-pointer rewrite *)
}

type spec = {
  xs_structs : xdr_struct list;
  xs_typedefs : (string * string) list;  (** ptr typedef -> wrapper struct *)
}

val generate :
  Decaf_minic.Ast.file -> const_env:(string * int) list -> spec
(** Generate the spec for every struct in the file. [const_env] resolves
    named array lengths in [exp(...)] annotations (e.g. PCI_LEN = 64). *)

val find_struct : spec -> string -> xdr_struct option

val to_string : spec -> string
(** Render as a .x interface file. *)

val wire_size : spec -> string -> int
(** Marshaled size in bytes of one struct (XDR rules; strings estimated
    at 64 payload bytes; recursive references counted once). *)
