type value =
  | Int of int
  | Bool of bool
  | Str of string
  | Arr of value list
  | Obj of (string * value) list

let add_escaped buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let items buf opening closing add_item xs =
  Buffer.add_char buf opening;
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      add_item x)
    xs;
  Buffer.add_char buf closing

let rec add buf = function
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | Arr vs -> items buf '[' ']' (add buf) vs
  | Obj kvs ->
      items buf '{' '}'
        (fun (k, v) ->
          add buf (Str k);
          Buffer.add_char buf ':';
          add buf v)
        kvs

let to_string v =
  let buf = Buffer.create 256 in
  add buf v;
  Buffer.contents buf
