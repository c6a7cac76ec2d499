module K = Decaf_kernel

type 'k t = {
  name : string;
  watermark : int;
  interval_ns : int;
  keys : unit -> 'k list;
  target : 'k -> Domain.t;
  flush : 'k t -> 'k -> bool;
  mutable infra : (int * K.Workqueue.t array * K.Timer.t) option;
      (** The flush workers and timer belong to one machine lifetime:
          after a reboot the scheduler that owned the worker threads is
          gone, so boot forgets them. They are created lazily, tagged
          with the dispatch pool width they were sized for, and created
          again when that width changes. *)
  mutable rr : int;  (** round-robin cursor over the workqueues *)
  mutable enabled : bool;
}

(* How long a deferred drain backs off when the target's worker pool is
   full, and how soon a failed flush is retried. *)
let retry_ns = 1_000_000

let queue d wqs job =
  d.rr <- (d.rr + 1) mod Array.length wqs;
  K.Workqueue.queue_work wqs.(d.rr) job

let rec infra d =
  let size = min (Dispatch.workers ()) 4 in
  match d.infra with
  | Some (s, wqs, timer) when s = size -> (wqs, timer)
  | _ ->
      let wqs =
        Array.init size (fun i ->
            K.Workqueue.create ~name:(Printf.sprintf "%s/%d" d.name i))
      in
      (* interrupt context: ring the doorbell by deferring every drain to
         process context, where crossing may block *)
      let timer =
        K.Timer.create ~name:(d.name ^ "-doorbell") (fun () -> fan_out d wqs)
      in
      d.infra <- Some (size, wqs, timer);
      (wqs, timer)

and defer d wqs k = queue d wqs (fun () -> deferred d k)
and fan_out d wqs = List.iter (defer d wqs) (d.keys ())

(* With one dispatch worker the back-off is "hold off while any crossing
   is in flight"; with N, drains proceed while a worker is free. *)
and deferred d k =
  if Channel.in_flight (d.target k) >= Dispatch.workers () then begin
    let _, timer = infra d in
    if not (K.Timer.pending timer) then K.Timer.mod_timer_in timer retry_ns
  end
  else drain d k

(* Reprogram even a pending timer: the items are aging in place, so the
   retry must come at the short interval, not at the latency bound. *)
and drain d k =
  if not (d.flush d k) then
    let _, timer = infra d in
    K.Timer.mod_timer_in timer retry_ns

let create ~name ~watermark ~interval_ns ~keys ~target ~flush =
  let d =
    {
      name;
      watermark;
      interval_ns;
      keys;
      target;
      flush;
      infra = None;
      rr = 0;
      enabled = false;
    }
  in
  K.Boot.on_reset (fun () ->
      d.infra <- None;
      d.rr <- 0;
      d.enabled <- false);
  d

let trigger d k ~fill =
  let wqs, timer = infra d in
  if fill >= d.watermark then defer d wqs k
  else if not (K.Timer.pending timer) then
    K.Timer.mod_timer_in timer d.interval_ns

let kick d k = defer d (fst (infra d)) k
let kick_all d = fan_out d (fst (infra d))

(* A loop rather than [List.iter (drain d)]: every PM and unbind flush
   point drains, and the partial application would allocate each time. *)
let rec drain_each d = function
  | [] -> ()
  | k :: ks ->
      drain d k;
      drain_each d ks

let drain_all d =
  drain_each d (d.keys ());
  match d.infra with
  | Some (_, wqs, _) -> Array.iter K.Workqueue.flush wqs
  | None -> ()

let set_enabled d v = d.enabled <- v
let enabled d = d.enabled
