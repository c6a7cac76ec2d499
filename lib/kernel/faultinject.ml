type kind =
  | Bad_read
  | Stuck_ones
  | Stuck_zero
  | Alloc_fail
  | Xpc_timeout
  | Spurious_irq
  | Link_flap

type trigger = Always | Span of int * int | Prob of float

type spec = { site : string; addr : int option; kind : kind; trigger : trigger }

type injection = {
  inj_site : string;
  inj_addr : int option;
  inj_kind : kind;
  inj_seq : int;
}

type armed = { spec : spec; mutable matched : int }
type plan = {
  rng : Random.State.t;
  specs : armed list;
  read_sites : string list;
      (* sites with a read-fault spec: [filter_read] returns at once for
         any other site, drawing nothing, as the full match would *)
}

let plan_v : plan option ref = ref None
let injected = ref 0
let log_v : injection list ref = ref []

let spec ?addr ~site ~kind ~trigger () = { site; addr; kind; trigger }

let read_fault = function
  | Stuck_ones | Stuck_zero | Bad_read -> true
  | Alloc_fail | Xpc_timeout | Spurious_irq | Link_flap -> false

let arm ~seed specs =
  plan_v :=
    Some
      {
        rng = Random.State.make [| seed |];
        specs = List.map (fun s -> { spec = s; matched = 0 }) specs;
        read_sites =
          List.filter_map
            (fun s -> if read_fault s.kind then Some s.site else None)
            specs;
      };
  injected := 0;
  log_v := []

let disarm () = plan_v := None

let active () = match !plan_v with Some _ -> true | None -> false

let reset () =
  disarm ();
  injected := 0;
  log_v := []

let record ~site ~addr kind =
  incr injected;
  log_v :=
    { inj_site = site; inj_addr = addr; inj_kind = kind; inj_seq = !injected }
    :: !log_v

(* [Random.State.float rng 1.0 < p] without boxing the float: the same
   53-bit draw, redrawn on zero as the stdlib's [rawfloat] does, so the
   same state makes the same decision and is left the same. *)
let rec draw rng p =
  let n = Int64.shift_right_logical (Random.State.bits64 rng) 11 in
  if n <> 0L then Int64.to_float n *. 0x1.p-53 < p else draw rng p

(* Evaluate one armed spec's trigger against its own match counter. The
   counter advances on every match, fired or not, so a [Span] models "the
   k-th through (k+n-1)-th accesses to this site go wrong". *)
let eval p (a : armed) =
  a.matched <- a.matched + 1;
  match a.spec.trigger with
  | Always -> true
  | Span (first, count) -> a.matched >= first && a.matched < first + count
  | Prob pr -> draw p.rng pr

(* Evaluate every spec matching the access, in plan order, and tell
   whether any fired: each match advances its spec's counter (and a
   [Prob] draws), so none may be skipped once one has fired. An access
   with no address ([at] false) matches only specs that name none.
   Recursive rather than a fold, so a check builds no closure. *)
let rec any_fired p ~site ~at ~addr kind fired = function
  | [] -> fired
  | a :: rest ->
      let s = a.spec in
      let hit =
        String.equal s.site site && s.kind = kind
        && match s.addr with None -> true | Some x -> at && x = addr
      in
      let fired = if hit then eval p a || fired else fired in
      any_fired p ~site ~at ~addr kind fired rest

let fires_at p ~site ~at ~addr kind =
  let fired = any_fired p ~site ~at ~addr kind false p.specs in
  if fired then record ~site ~addr:(if at then Some addr else None) kind;
  fired

let fires ~site ?addr kind =
  match !plan_v with
  | None -> false
  | Some p -> (
      match addr with
      | None -> fires_at p ~site ~at:false ~addr:0 kind
      | Some addr -> fires_at p ~site ~at:true ~addr kind)

let flip_bit p v = v lxor (1 lsl Random.State.int p.rng 8)

(* Stuck-ones, then stuck-zero, then a flipped bit, each on the value
   the previous one left. *)
let filter_read ~site ~addr v =
  match !plan_v with
  | None -> v
  | Some p when not (List.mem site p.read_sites) -> v
  | Some p ->
      let v =
        (* callers mask to access width: all ones *)
        if fires_at p ~site ~at:true ~addr Stuck_ones then -1 else v
      in
      let v = if fires_at p ~site ~at:true ~addr Stuck_zero then 0 else v in
      if fires_at p ~site ~at:true ~addr Bad_read then flip_bit p v else v

let injected_count () = !injected
let injections () = List.rev !log_v
