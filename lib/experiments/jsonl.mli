(** Readers for the committed line-JSON trajectories
    ([BENCH_xpc.json], [BENCH_soak.json]): one flat object per line,
    written by hand and parsed without a JSON library. A reader looks a
    key up in one line and returns [None] when the key is missing or
    its value does not parse. *)

val field_int : string -> string -> int option
(** [field_int line key]: the integer value of [key]. *)

val field_str : string -> string -> string option
(** [field_str line key]: the string value of [key], unescaped strings
    only. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] when it cannot be read. *)
