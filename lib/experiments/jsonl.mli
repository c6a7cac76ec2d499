(** The line-JSON the experiments print without a JSON library: the
    committed trajectories ([BENCH_xpc.json], [BENCH_soak.json], a
    header object on the first line, then one flat object per line),
    [decafctl status --json] and [explore --json].

    One writer ({!to_string}) prints every object, compact and with its
    strings escaped. Nothing reads the files back: dune diffs each
    trajectory against its committed copy byte for byte. *)

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
