(** The line-JSON the experiments write and read without a JSON
    library: the committed trajectories ([BENCH_xpc.json],
    [BENCH_soak.json], a header object on the first line, then one flat
    object per line), [decafctl status --json] and [explore --json].

    One writer ({!to_string}) prints every object, compact and with its
    strings escaped. Every key a reader asks for is required: a missing
    key, or a value that does not parse, raises {!Missing_key} naming
    the line, so a damaged baseline is rejected instead of read with
    defaults. *)

type value =
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of value list
  | Obj of (string * value) list  (** keys printed in list order *)

val to_string : value -> string
(** Compact JSON, no whitespace. In a string, a quote, a backslash and
    a newline are escaped with a backslash, other control characters as
    [\u00XX]. *)

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
