module K = Decaf_kernel
module Plan = Marshal_plan

(* Kernel-side validation of inbound crossings (the reply/return half of
   an upcall, or a deferred notification's payload): the user-level
   driver is untrusted, so every field it hands back is checked against
   the marshal plan (writability) and a per-field rule (range, enum,
   length) before kernel state absorbs it. *)

type rule =
  | Range of int * int  (* inclusive bounds *)
  | Enum of int list
  | Max_len of int  (* variable-length arrays *)
  | Non_negative
  | Any  (* writability check only *)

(* Per field, in plan order. A table has a handful of fields, so a
   check finds its field by scanning the names. *)
type t = {
  type_id : string;
  names : string array;
  writable : bool array;  (* the plan copies the field out *)
  rules : rule array;  (* [Any] where the field has no rule *)
  mutable rejections : int;  (* per-validator, for campaign assertions *)
}

(* The guard axis: when off, field rules are skipped and uncharged — the
   measurement baseline for the validation-cost overhead in Xpcperf.
   Capability-handle resolution (Objtracker) is part of the wire
   protocol and stays on either way. On by default: a secure boundary is
   the product configuration. *)
let enabled = ref true
let set_enabled v = enabled := v
let is_enabled () = !enabled

(* Inbound growth limits. [max_inbound_bytes] bounds one inbound payload
   (the kmalloc a crossing can force on the kernel side);
   [max_batch_queue] bounds each deferred-call queue (enforced by
   Batch.post: drop + count, never a fault from posting context). The
   values are validated like module parameters: out-of-range settings
   fall back to the default with a log line (Params discipline). *)
type limits = {
  mutable max_inbound_bytes : int;
  mutable max_batch_queue : int;
}

let default_max_inbound_bytes = 4096
let default_max_batch_queue = 1024
let limits =
  {
    max_inbound_bytes = default_max_inbound_bytes;
    max_batch_queue = default_max_batch_queue;
  }

let set_limit ~name ~default ~min ~max field v =
  if v >= min && v <= max then field v
  else begin
    K.Klog.printk K.Klog.Warning
      "guard: limit %s: invalid value %d, using default %d" name v default;
    field default
  end

let configure ?max_inbound_bytes ?max_batch_queue () =
  Option.iter
    (set_limit ~name:"max_inbound_bytes" ~default:default_max_inbound_bytes
       ~min:64 ~max:1_048_576 (fun v -> limits.max_inbound_bytes <- v))
    max_inbound_bytes;
  Option.iter
    (set_limit ~name:"max_batch_queue" ~default:default_max_batch_queue
       ~min:1 ~max:1_048_576 (fun v -> limits.max_batch_queue <- v))
    max_batch_queue

let reset () =
  enabled := true;
  limits.max_inbound_bytes <- default_max_inbound_bytes;
  limits.max_batch_queue <- default_max_batch_queue

let () = K.Boot.on_reset reset

let make plan rules =
  let type_id = Plan.type_id plan in
  let bad fmt = Printf.ksprintf invalid_arg ("Guard.make: " ^^ fmt) in
  ignore
    (List.fold_left
       (fun seen (field, _) ->
         if Plan.access plan field = None then
           bad "%s has no field %s" type_id field;
         if List.mem field seen then bad "duplicate rule for %s.%s" type_id field;
         field :: seen)
       [] rules);
  let fields = Array.of_list (Plan.fields plan) in
  let rule (name, _) = Option.value (List.assoc_opt name rules) ~default:Any in
  {
    type_id;
    names = Array.map fst fields;
    writable = Array.map (fun (name, _) -> Plan.copies_out plan name) fields;
    rules = Array.map rule fields;
    rejections = 0;
  }

let type_id t = t.type_id
let rejections t = t.rejections

let charge () =
  Dispatch.charge K.Cost.current.guard_check_ns;
  Boundary.note_check ()

let fail t ~field fmt =
  Printf.ksprintf
    (fun reason ->
      t.rejections <- t.rejections + 1;
      Boundary.reject ~type_id:(type_id t) ~field "%s" reason)
    fmt

(* The field's plan position, or -1 when the plan has none. A table has
   at most seven fields, and Codec and Ring pass the table's own
   strings, so the match itself is a pointer compare. *)
let rec position names field i =
  if i = Array.length names then -1
  else if String.equal names.(i) field then i
  else position names field (i + 1)

(* A field the plan marks [Read] is kernel-to-user only: a presence flag
   for it in an inbound image is an attempted write through a read-only
   view, whatever the value. Returns the field's position. *)
let writable t ~field =
  charge ();
  let i = position t.names field 0 in
  if i < 0 || not t.writable.(i) then
    fail t ~field "attempted write to a field the plan marks read-only";
  i

let int_field t ~field v =
  if not !enabled then v
  else begin
    (match t.rules.(writable t ~field) with
    | Range (lo, hi) ->
        charge ();
        if v < lo || v > hi then
          fail t ~field "value %d outside [%d, %d]" v lo hi
    | Enum allowed ->
        charge ();
        if not (List.mem v allowed) then fail t ~field "value %d not in enum" v
    | Non_negative ->
        charge ();
        if v < 0 then fail t ~field "negative value %d" v
    | Max_len _ ->
        charge ();
        fail t ~field "scalar value for an array field"
    | Any -> ());
    v
  end

let bool_field t ~field v =
  if not !enabled then v
  else begin
    ignore (writable t ~field);
    v
  end

let array_field t ~field v =
  if not !enabled then v
  else begin
    (match t.rules.(writable t ~field) with
    | Max_len n ->
        charge ();
        if Array.length v > n then
          fail t ~field "length %d exceeds bound %d" (Array.length v) n
    | Range _ | Enum _ | Non_negative ->
        charge ();
        fail t ~field "array value for a scalar field"
    | Any -> ());
    v
  end

(* The size bound runs even with the guard axis off: an unbounded
   inbound payload is a memory-exhaustion attack on the kernel-side
   unmarshal buffer, not a per-field validation cost. *)
let check_inbound_bytes t n =
  Boundary.note_check ();
  if n > limits.max_inbound_bytes then begin
    t.rejections <- t.rejections + 1;
    Boundary.reject ~type_id:(type_id t) ~field:"payload"
      "inbound payload of %d bytes exceeds limit %d" n
      limits.max_inbound_bytes
  end

let reject_malformed t reason =
  t.rejections <- t.rejections + 1;
  Boundary.reject ~type_id:(type_id t) ~field:"payload" "malformed image: %s"
    reason
