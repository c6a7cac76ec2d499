type access = Read | Write | Read_write

type t = { type_id : string; fields : (string * access) list }

let make ~type_id fields =
  let rec unique = function
    | [] -> ()
    | (name, _) :: rest ->
        if List.mem_assoc name rest then
          invalid_arg
            ("Marshal_plan.make: duplicate field in plan for " ^ type_id);
        unique rest
  in
  unique fields;
  { type_id; fields }

let type_id t = t.type_id
let fields t = t.fields
let access t name = List.assoc_opt name t.fields

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

  (* Per field, by table position. Generations start at 1, so a 0 mark
     is a clean field. *)
  type t = {
    owner : string;  (* boundary-fault attribution, default "dirty" *)
    mutable gen : int;  (* monotonic write counter, never reset *)
    mutable issued : int;  (* high-water mark of generations snapshotted *)
    marks : int array;  (* generation of the last write, 0 when clean *)
    births : int array;
        (* stamp of the oldest unacknowledged mark: re-marks keep the
           first stamp, so the mark-to-resync timeline measures how
           stale the peer's view of the field actually got *)
    mutable pending : int;  (* fields with a mark *)
  }

  let create ?(owner = "dirty") n =
    {
      owner;
      gen = 0;
      issued = 0;
      marks = Array.make n 0;
      births = Array.make n 0;
      pending = 0;
    }

  let mark t i =
    t.gen <- t.gen + 1;
    if t.marks.(i) = 0 then begin
      t.births.(i) <- K.Clock.now ();
      t.pending <- t.pending + 1
    end;
    t.marks.(i) <- t.gen

  let test t i = t.marks.(i) <> 0
  let pending t = t.pending

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
    for i = 0 to Array.length t.marks - 1 do
      let gen = t.marks.(i) in
      if gen <> 0 && gen <= upto then begin
        t.marks.(i) <- 0;
        t.pending <- t.pending - 1;
        K.Latency.observe_at latency
          (Int.max 0 (K.Clock.now () - t.births.(i)))
      end
    done

  let issued t = t.issued
end
