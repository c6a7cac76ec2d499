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

exception Missing_key of { line : int; key : string }

type line = { number : int; text : string }

let lines text =
  List.filter (fun l -> String.trim l.text <> "")
    (List.mapi
       (fun i text -> { number = i + 1; text })
       (String.split_on_char '\n' text))

let field_raw line key =
  let pat = "\"" ^ key ^ "\":" in
  let plen = String.length pat and llen = String.length line in
  let rec scan i =
    if i + plen > llen then None
    else if String.sub line i plen = pat then Some (i + plen)
    else scan (i + 1)
  in
  scan 0

let field_int line key =
  match field_raw line key with
  | None -> None
  | Some start ->
      let llen = String.length line in
      let stop = ref start in
      while
        !stop < llen
        && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr stop
      done;
      if !stop = start then None
      else int_of_string_opt (String.sub line start (!stop - start))

let field_str line key =
  match field_raw line key with
  | Some start when start < String.length line && line.[start] = '"' -> (
      match String.index_from_opt line (start + 1) '"' with
      | Some stop -> Some (String.sub line (start + 1) (stop - start - 1))
      | None -> None)
  | _ -> None

let required field l key =
  match field l.text key with
  | Some v -> v
  | None -> raise (Missing_key { line = l.number; key })

let int = required field_int
let str = required field_str

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))
