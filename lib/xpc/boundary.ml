(* The typed fault raised when inbound data from an untrusted user-level
   driver fails validation, plus the machine-wide rejection counters.
   This module uses nothing else in the XPC library so that every
   boundary layer — Marshal_plan.Dirty, Objtracker, Batch, Guard — can
   report into the same accounting without import cycles. *)

exception
  Boundary_violation of {
    type_id : string;  (** which boundary object (plan type, tracker, queue) *)
    field : string;  (** offending field / handle / generation *)
    reason : string;
  }

let () =
  Printexc.register_printer (function
    | Boundary_violation { type_id; field; reason } ->
        Some
          (Printf.sprintf "Boundary_violation(%s.%s: %s)" type_id field reason)
    | _ -> None)

type counters = {
  mutable checks : int;  (** validations performed *)
  mutable rejected : int;  (** violations detected (raised or refused) *)
  mutable dropped : int;  (** inbound work discarded without a fault *)
}

let totals = { checks = 0; rejected = 0; dropped = 0 }

(* Per-scope rejection attribution: every crossing of a binding's
   Driver_env runs under the binding's id, and the split drivers set it
   around their own inbound unmarshal paths, so `decafctl status` can
   show rejections per driver. Save/restore keeps nesting correct. The
   scope is a plain string, so entering one builds nothing; [""], the
   scope outside every crossing, attributes to no binding. *)
let scope = ref ""
let by_scope : (string, int) Hashtbl.t = Hashtbl.create 8

let enter name =
  let saved = !scope in
  scope := name;
  saved

let leave saved = scope := saved

let scoped name f =
  let saved = enter name in
  match f () with
  | v ->
      leave saved;
      v
  | exception e ->
      leave saved;
      raise e

let rejected_for name =
  Option.value ~default:0 (Hashtbl.find_opt by_scope name)

(* Drops share the same attribution path as rejections: Batch queue-bound
   drops and Ring overflow/teardown drops land here under the binding's
   scope, so status output can reconcile per-driver drops against the
   machine-wide total. *)
let dropped_by_scope : (string, int) Hashtbl.t = Hashtbl.create 8

let dropped_for name =
  Option.value ~default:0 (Hashtbl.find_opt dropped_by_scope name)

let note_check () = totals.checks <- totals.checks + 1

let note_rejected () =
  totals.rejected <- totals.rejected + 1;
  let name = !scope in
  if name <> "" then Hashtbl.replace by_scope name (1 + rejected_for name)

let note_dropped () =
  totals.dropped <- totals.dropped + 1;
  let name = !scope in
  if name <> "" then
    Hashtbl.replace dropped_by_scope name (1 + dropped_for name)

let reject ~type_id ~field fmt =
  Printf.ksprintf
    (fun reason ->
      note_rejected ();
      raise (Boundary_violation { type_id; field; reason }))
    fmt

let () =
  Decaf_kernel.Boot.on_reset @@ fun () ->
  totals.checks <- 0;
  totals.rejected <- 0;
  totals.dropped <- 0;
  Hashtbl.reset by_scope;
  Hashtbl.reset dropped_by_scope;
  scope := ""
