exception Hw_error of { driver : string; errno : int; context : string }

let eio = 5
let enomem = 12
let ebusy = 16
let enodev = 19
let einval = 22
let etimedout = 110

let throw ~driver ~errno context = raise (Hw_error { driver; errno; context })

let check ~driver ~context code =
  if code < 0 then throw ~driver ~errno:(-code) context

let to_errno body =
  match body () with
  | () -> 0
  | exception Hw_error { errno; _ } -> -errno

let to_result body =
  match body () with
  | v -> Ok v
  | exception Hw_error { errno; _ } -> Error (-errno)

let protect ~cleanup body =
  match body () with
  | v -> v
  | exception e ->
      cleanup ();
      raise e

(* Attempt [n] of [f a b], with the next backoff: a top-level loop, so
   a retried handshake builds no closure. *)
let rec attempt ~attempts ~backoff_ns n backoff f a b =
  match f a b with
  | v -> v
  | exception Hw_error _ when n < attempts ->
      Decaf_kernel.Sched.sleep_ns backoff;
      attempt ~attempts ~backoff_ns (n + 1)
        (min (backoff * 2) (8 * backoff_ns))
        f a b

let with_retry ~attempts ~backoff_ns f a b =
  if attempts < 1 || backoff_ns < 0 then invalid_arg "Errors.with_retry";
  attempt ~attempts ~backoff_ns 1 backoff_ns f a b
