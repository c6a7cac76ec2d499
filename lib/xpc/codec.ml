module Plan = Marshal_plan

type kind = Int | Bool | Words of int
type desc = {
  name : string;
  access : Plan.access;
  kind : kind;
  rule : Guard.rule;
}

type t = {
  type_id : string;
  descs : desc array;
  plan : Plan.t;
  guard : Guard.t;
  readable : bool array;  (* per field: the plan copies it in *)
  writable : bool array;  (* per field: the plan copies it out *)
}

let make ~type_id descs =
  let plan =
    Plan.make ~type_id (List.map (fun d -> (d.name, d.access)) descs)
  in
  {
    type_id;
    descs = Array.of_list descs;
    plan;
    guard = Guard.make plan (List.map (fun d -> (d.name, d.rule)) descs);
    readable =
      Array.of_list (List.map (fun d -> Plan.copies_in plan d.name) descs);
    writable =
      Array.of_list (List.map (fun d -> Plan.copies_out plan d.name) descs);
  }

let type_id t = t.type_id
let plan t = t.plan
let guard t = t.guard
let descs t = Array.to_list t.descs

(* A field handle is its table index; the constructor fixes its type. *)
type _ field =
  | Int_f : int -> int field
  | Bool_f : int -> bool field
  | Words_f : int * int -> int array field  (* index, bound *)

let lookup t name =
  let rec go i =
    if i = Array.length t.descs then
      invalid_arg (Printf.sprintf "Codec: %s has no field %s" t.type_id name)
    else if t.descs.(i).name = name then (i, t.descs.(i).kind)
    else go (i + 1)
  in
  go 0

let wrong_kind t name =
  invalid_arg (Printf.sprintf "Codec: %s.%s has another kind" t.type_id name)

let int t name =
  match lookup t name with i, Int -> Int_f i | _ -> wrong_kind t name

let bool t name =
  match lookup t name with i, Bool -> Bool_f i | _ -> wrong_kind t name

let words t name =
  match lookup t name with
  | i, Words n -> Words_f (i, n)
  | _ -> wrong_kind t name

(* Scalars (bools as 0/1) and word arrays, both indexed by table
   position: a scalar's array slot and an array's scalar slot go unused. *)
type obj = {
  codec : t;
  scalars : int array;
  arrays : int array array;
  dirty : Plan.Dirty.t;
}

let create ?owner t =
  {
    codec = t;
    scalars = Array.make (Array.length t.descs) 0;
    arrays =
      Array.map
        (fun d ->
          match d.kind with Words n -> Array.make n 0 | Int | Bool -> [||])
        t.descs;
    dirty =
      Plan.Dirty.create
        ~owner:(Option.value owner ~default:t.type_id)
        (Array.length t.descs);
  }

let dirty o = o.dirty

let mark (type a) o (f : a field) =
  let i = match f with Int_f i | Bool_f i -> i | Words_f (i, _) -> i in
  Plan.Dirty.mark o.dirty i

let get (type a) o (f : a field) : a =
  match f with
  | Int_f i -> o.scalars.(i)
  | Bool_f i -> o.scalars.(i) <> 0
  | Words_f (i, _) -> o.arrays.(i)

let set_quiet (type a) o (f : a field) (v : a) =
  match f with
  | Int_f i -> o.scalars.(i) <- v
  | Bool_f i -> o.scalars.(i) <- Bool.to_int v
  | Words_f (i, n) ->
      Array.blit v 0 o.arrays.(i) 0 (Int.min n (Array.length v))

let set (type a) o (f : a field) (v : a) =
  let changed =
    match f with
    | Int_f i -> o.scalars.(i) <> v
    | Bool_f i -> o.scalars.(i) <> Bool.to_int v
    | Words_f (i, n) ->
        let len = Int.min n (Array.length v) in
        Array.sub o.arrays.(i) 0 len <> Array.sub v 0 len
  in
  if changed then begin
    set_quiet o f v;
    mark o f
  end

let set_word o (Words_f (i, _) as f) j v =
  if o.arrays.(i).(j) <> v then begin
    o.arrays.(i).(j) <- v;
    mark o f
  end

type value = I of int | B of bool | W of int array

let values o =
  List.mapi
    (fun i d ->
      ( d.name,
        match d.kind with
        | Int -> I o.scalars.(i)
        | Bool -> B (o.scalars.(i) <> 0)
        | Words _ -> W (Array.copy o.arrays.(i)) ))
    (descs o.codec)

(* --- wire --- *)

type direction = Copy_in | Copy_out

(* One buffer for every image: nothing in [encode] can suspend, so no
   second encode can start before [to_bytes] copies this one out. *)
let enc = Xdr.Enc.create ()

let encode o ~handle direction ~delta =
  let t = o.codec in
  let copies =
    match direction with Copy_in -> t.readable | Copy_out -> t.writable
  in
  Xdr.Enc.clear enc;
  Xdr.Enc.uint enc handle;
  for i = 0 to Array.length t.descs - 1 do
    let present = copies.(i) && ((not delta) || Plan.Dirty.test o.dirty i) in
    Xdr.Enc.bool enc present;
    if present then
      match t.descs.(i).kind with
      | Int -> Xdr.Enc.int enc o.scalars.(i)
      | Bool -> Xdr.Enc.bool enc (o.scalars.(i) <> 0)
      | Words _ -> Xdr.Enc.array_var enc Xdr.Enc.uint o.arrays.(i)
  done;
  Xdr.Enc.to_bytes enc

type image = { i_codec : t; i_handle : int; fields : value option array }

let decode t bytes =
  let d = Xdr.Dec.of_bytes bytes in
  let i_handle = Xdr.Dec.uint d in
  let read desc =
    if not (Xdr.Dec.bool d) then None
    else
      match desc.kind with
      | Int -> Some (I (Xdr.Dec.int d))
      | Bool -> Some (B (Xdr.Dec.bool d))
      | Words _ -> Some (W (Xdr.Dec.array_var d Xdr.Dec.uint))
  in
  let fields = Array.map read t.descs in
  Xdr.Dec.check_drained d;
  { i_codec = t; i_handle; fields }

let handle img = img.i_handle

let check img =
  let t = img.i_codec in
  Array.iteri
    (fun i v ->
      let field = t.descs.(i).name in
      match v with
      | None -> ()
      | Some (I v) -> ignore (Guard.int_field t.guard ~field v)
      | Some (B v) -> ignore (Guard.bool_field t.guard ~field v)
      | Some (W v) -> ignore (Guard.array_field t.guard ~field v))
    img.fields

let apply o img ~writable_only =
  Array.iteri
    (fun i v ->
      if (not writable_only) || o.codec.writable.(i) then
        match (v, o.codec.descs.(i).kind) with
        | Some (I v), _ -> o.scalars.(i) <- v
        | Some (B v), _ -> o.scalars.(i) <- Bool.to_int v
        | Some (W v), Words n ->
            Array.blit v 0 o.arrays.(i) 0 (Int.min n (Array.length v))
        | Some (W _), (Int | Bool) | None, _ -> ())
    img.fields

(* --- hostile images from the table --- *)

let in_envelope d =
  match (d.kind, d.rule) with
  | Bool, _ -> B true
  | Words n, _ -> W (Array.init n (fun i -> i + 1))
  | Int, Guard.Range (_, hi) -> I hi
  | Int, Guard.Enum (v :: _) -> I v
  | Int, _ -> I 7

let violations d =
  let read =
    if d.access = Plan.Read then [ ("present", in_envelope d) ] else []
  in
  read
  @
  match d.rule with
  | Guard.Range (lo, hi) ->
      [ ("below range", I (lo - 1)); ("above range", I (hi + 1)) ]
  | Guard.Enum vs ->
      [ ("outside enum", I (List.fold_left Int.max min_int vs + 1)) ]
  | Guard.Non_negative -> [ ("negative", I (-1)) ]
  | Guard.Max_len n -> [ ("too long", W (Array.make (n + 1) 0)) ]
  | Guard.Any -> []

let payload t ~handle fields =
  List.iter (fun (name, _) -> ignore (lookup t name)) fields;
  let e = Xdr.Enc.create () in
  Xdr.Enc.uint e handle;
  Array.iter
    (fun d ->
      let v = List.assoc_opt d.name fields in
      Xdr.Enc.bool e (Option.is_some v);
      match v with
      | None -> ()
      | Some (I v) -> Xdr.Enc.int e v
      | Some (B v) -> Xdr.Enc.bool e v
      | Some (W v) -> Xdr.Enc.array_var e Xdr.Enc.uint v)
    t.descs;
  Xdr.Enc.to_bytes e
