(** Readers for the committed line-JSON trajectories
    ([BENCH_xpc.json], [BENCH_soak.json]): a header object on the first
    line, then one flat object per line, written by hand and parsed
    without a JSON library. Every key a reader asks for is required: a
    missing key, or a value that does not parse, raises {!Missing_key}
    naming the line, so a damaged baseline is rejected instead of read
    with defaults. *)

exception Missing_key of { line : int; key : string }
(** [line] counts from 1, as an editor does. *)

type line
(** One non-blank line of a file, with its line number. *)

val lines : string -> line list
(** The non-blank lines of a file's text, in order. *)

val int : line -> string -> int
(** [int line key]: the integer value of [key]. *)

val str : line -> string -> string
(** [str line key]: the string value of [key], unescaped strings
    only. *)

val read_file : string -> string
(** The whole file. Raises [Sys_error] when it cannot be read. *)
