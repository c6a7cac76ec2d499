type access = Read | Write | Read_write

type t = {
  type_id : string;
  fields : (string * access) list;
  (* Precomputed name -> access map: [access] is on the per-field hot path
     of every marshal (once per field per crossing), so the list lookup is
     replaced by a hash probe built once at plan-construction time. *)
  index : (string, access) Hashtbl.t;
}

let make ~type_id fields =
  let index = Hashtbl.create (max 8 (2 * List.length fields)) in
  List.iter
    (fun (name, a) ->
      if Hashtbl.mem index name then
        invalid_arg
          ("Marshal_plan.make: duplicate field in plan for " ^ type_id);
      Hashtbl.replace index name a)
    fields;
  { type_id; fields; index }

let type_id t = t.type_id
let fields t = t.fields

let access t name = Hashtbl.find_opt t.index name

let copies_in t name =
  match access t name with
  | Some (Read | Read_write) -> true
  | Some Write | None -> false

let copies_out t name =
  match access t name with
  | Some (Write | Read_write) -> true
  | Some Read | None -> false

let combine a b =
  match (a, b) with
  | Read_write, _ | _, Read_write -> Read_write
  | Read, Write | Write, Read -> Read_write
  | Read, Read -> Read
  | Write, Write -> Write

(* Field order is part of the wire format (the generated stubs walk the
   plan in order), so [union] is deterministic: [a]'s fields first, in
   [a]'s order, with access rights combined where [b] also lists the
   field; then fields only [b] has, in [b]'s order. *)
let union a b =
  if a.type_id <> b.type_id then
    invalid_arg "Marshal_plan.union: different types";
  let merged_a =
    List.map
      (fun (name, acc_a) ->
        match access b name with
        | Some acc_b -> (name, combine acc_a acc_b)
        | None -> (name, acc_a))
      a.fields
  in
  let only_b =
    List.filter (fun (name, _) -> access a name = None) b.fields
  in
  make ~type_id:a.type_id (merged_a @ only_b)

let full ~type_id names =
  make ~type_id (List.map (fun n -> (n, Read_write)) names)

let pp ppf t =
  let pp_access ppf = function
    | Read -> Format.pp_print_string ppf "R"
    | Write -> Format.pp_print_string ppf "W"
    | Read_write -> Format.pp_print_string ppf "RW"
  in
  Format.fprintf ppf "@[<v>plan %s:@," t.type_id;
  List.iter
    (fun (name, a) -> Format.fprintf ppf "  %s: %a@," name pp_access a)
    t.fields;
  Format.fprintf ppf "@]"

(* Delta marshaling is a global mode, like direct marshaling: the stubs on
   both sides of a boundary must agree on whether a payload is a full or a
   dirty-fields-only image, and flipping it per-object would make payloads
   ambiguous after a runtime restart. *)
let delta = ref false
let set_delta_enabled v = delta := v
let () = Decaf_kernel.Boot.on_reset (fun () -> delta := false)
let delta_enabled () = !delta

module Dirty = struct
  module K = Decaf_kernel

  let latency = K.Latency.path "xpc.dirty"

  type tracker = {
    owner : string;  (* boundary-fault attribution, default "dirty" *)
    mutable gen : int;  (* monotonic write counter, never reset *)
    mutable issued : int;  (* high-water mark of generations snapshotted *)
    marks : (string, int) Hashtbl.t;  (* field -> generation of last write *)
    births : (string, int) Hashtbl.t;
        (* field -> stamp of the oldest unacknowledged mark: re-marks
           keep the first stamp, so the mark-to-resync timeline measures
           how stale the peer's view of the field actually got *)
  }

  type t = tracker

  let create ?(owner = "dirty") () =
    {
      owner;
      gen = 0;
      issued = 0;
      marks = Hashtbl.create 8;
      births = Hashtbl.create 8;
    }

  let mark t field =
    t.gen <- t.gen + 1;
    if not (Hashtbl.mem t.births field) then
      Hashtbl.replace t.births field (K.Clock.now ());
    Hashtbl.replace t.marks field t.gen

  let test t field = Hashtbl.mem t.marks field
  let pending t = Hashtbl.length t.marks

  let snapshot t =
    if t.gen > t.issued then t.issued <- t.gen;
    t.gen

  (* An acknowledged generation must have been issued by [snapshot]: an
     [upto] above the high-water mark is a forged or replayed ack (a
     hostile runtime trying to flush marks it never saw), and accepting
     it would silently lose dirty fields on the next delta. *)
  let acknowledge t ~upto =
    if upto > t.issued then
      Boundary.reject ~type_id:t.owner ~field:"ack"
        "acknowledged generation %d was never issued (high-water %d)" upto
        t.issued;
    let dead =
      Hashtbl.fold
        (fun field gen acc -> if gen <= upto then field :: acc else acc)
        t.marks []
    in
    List.iter
      (fun field ->
        Hashtbl.remove t.marks field;
        match Hashtbl.find_opt t.births field with
        | Some b ->
            Hashtbl.remove t.births field;
            K.Latency.observe_at latency (Int.max 0 (K.Clock.now () - b))
        | None -> ())
      dead

  let issued t = t.issued

  let clear t =
    Hashtbl.reset t.marks;
    Hashtbl.reset t.births
end
