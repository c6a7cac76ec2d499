module K = Decaf_kernel

type item = {
  payload_bytes : int;
  context : string;
  thunk : unit -> unit;
  born : int;
      (* enqueue stamp: the enqueue-to-delivery timeline survives
         requeues, so a batch that needed XPC retries reports the full
         wait its notifications actually experienced *)
}

type stats = {
  mutable posted : int;
  mutable delivered : int;
  mutable flush_crossings : int;
  mutable single_crossings : int;
  mutable max_batch : int;
  mutable requeues : int;
  mutable dropped : int;
}

let counters =
  {
    posted = 0;
    delivered = 0;
    flush_crossings = 0;
    single_crossings = 0;
    max_batch = 0;
    requeues = 0;
    dropped = 0;
  }

let default_watermark = 32
let default_flush_interval_ns = 10_000_000 (* 10 ms latency bound *)

let enabled = ref false
let watermark = ref default_watermark
let flush_interval_ns = ref default_flush_interval_ns

let queues : (Domain.t, item Queue.t) Hashtbl.t = Hashtbl.create 4

let queue_for target =
  match Hashtbl.find_opt queues target with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace queues target q;
      q

(* The flush workers and timer belong to one machine lifetime: after a
   reboot the scheduler that owned the worker threads is gone, so boot
   forgets the infrastructure. It is created lazily, tagged with the
   dispatch pool width it was sized for, and recreated when that width
   changes. With N dispatch workers per domain, up to min(N, 4) flush
   workqueues feed them round-robin, so independent flushes can occupy
   independent workers. *)
let infra : (int * K.Workqueue.t array * K.Timer.t) option ref = ref None

let rr = ref 0

let queue_flush wqs job =
  let n = Array.length wqs in
  rr := (!rr + 1) mod n;
  K.Workqueue.queue_work wqs.(!rr) job

(* Flush the whole queue for [target] with ONE crossing: the deferred
   thunks run inside a single Channel.call, so N calls pay one pair of
   crossings plus their summed payload bytes. The crossing is idempotent
   (deferred calls are one-way notifications applied by overwriting), so
   it reuses Channel's timeout/retry machinery; if even the retries fail,
   the batch is requeued in front of anything posted meanwhile — the
   fault model fires before the batch body runs, so nothing was delivered
   and nothing is duplicated. *)
let flush_target target =
  match Hashtbl.find_opt queues target with
  | None -> ()
  | Some q ->
      if not (Queue.is_empty q) then begin
        (* The flush crosses the boundary and may block; catching a call
           from irq context (or an irq-window hook) here names the batch
           machinery instead of surfacing deep inside Channel. *)
        K.Sched.assert_may_block "batch flush";
        K.Ktrace.note
          (K.Ktrace.Queue ("batch:" ^ Domain.to_string target))
          K.Ktrace.Wait;
        let batch = Queue.create () in
        Queue.transfer q batch;
        let n = Queue.length batch in
        let bytes =
          Queue.fold (fun acc it -> acc + it.payload_bytes) 0 batch
        in
        match
          Channel.call ~target ~payload_bytes:bytes ~idempotent:true
            ~context:"batch.flush"
            (fun () ->
              Queue.iter
                (fun it ->
                  it.thunk ();
                  K.Latency.observe_path "xpc.batch"
                    (max 0 (K.Clock.now () - it.born)))
                batch)
        with
        | () ->
            counters.flush_crossings <- counters.flush_crossings + 1;
            counters.delivered <- counters.delivered + n;
            if n > counters.max_batch then counters.max_batch <- n
        | exception Channel.Xpc_failure _ ->
            counters.requeues <- counters.requeues + 1;
            (* batch first, then whatever was posted during the attempt *)
            Queue.transfer q batch;
            Queue.transfer batch q
      end

(* Unbatched path: deliver the oldest deferred call with its own
   crossing, under its own name (so fault plans target the call, not the
   batching machinery). This is the cost baseline batching is measured
   against. *)
let flush_one target =
  match Hashtbl.find_opt queues target with
  | None -> ()
  | Some q ->
      if not (Queue.is_empty q) then begin
        K.Sched.assert_may_block "batch single-delivery flush";
        K.Ktrace.note
          (K.Ktrace.Queue ("batch:" ^ Domain.to_string target))
          K.Ktrace.Wait;
        let it = Queue.pop q in
        match
          Channel.call ~target ~payload_bytes:it.payload_bytes
            ~idempotent:true ~context:it.context
            (fun () ->
              it.thunk ();
              K.Latency.observe_path "xpc.batch"
                (max 0 (K.Clock.now () - it.born)))
        with
        | () ->
            counters.single_crossings <- counters.single_crossings + 1;
            counters.delivered <- counters.delivered + 1
        | exception Channel.Xpc_failure _ ->
            counters.requeues <- counters.requeues + 1;
            let rest = Queue.create () in
            Queue.transfer q rest;
            Queue.push it q;
            Queue.transfer rest q
      end

let drain_target target =
  if !enabled then flush_target target
  else
    match Hashtbl.find_opt queues target with
    | None -> ()
    | Some q ->
        let n = Queue.length q in
        for _ = 1 to n do
          flush_one target
        done

let targets () = Hashtbl.fold (fun t _ acc -> t :: acc) queues []

(* How long the flush worker backs off when it finds the target domain
   mid-call (a user-level runtime services one XPC at a time). *)
let busy_retry_ns = 1_000_000

let rec get_infra () =
  let size = min (Dispatch.workers ()) 4 in
  match !infra with
  | Some (s', wqs, timer) when s' = size -> (wqs, timer)
  | _ ->
      let wqs =
        Array.init size (fun i ->
            K.Workqueue.create ~name:(Printf.sprintf "xpc-batch/%d" i))
      in
      let timer =
        K.Timer.create ~name:"xpc-batch-doorbell" (fun () ->
            (* interrupt context: ring the doorbell by deferring the
               flush to process context, where crossing may block *)
            List.iter
              (fun t -> queue_flush wqs (fun () -> deferred_drain t))
              (targets ()))
      in
      infra := Some (size, wqs, timer);
      (wqs, timer)

(* Asynchronous delivery (workqueue/timer): hold off while the target's
   worker pool is saturated — a deferred notification entering a fully
   busy domain would retroactively update state an in-progress call
   already marshaled, or block a flush worker behind it. With one
   dispatch worker this is the historical "back off while any crossing
   is in flight"; with N, flushes proceed while a worker is free.
   Synchronous [doorbell]/[drain] are the caller's own ordering and are
   not gated. *)
and deferred_drain target =
  if Channel.in_flight target >= Dispatch.workers () then begin
    let _, timer = get_infra () in
    if not (K.Timer.pending timer) then K.Timer.mod_timer_in timer busy_retry_ns
  end
  else drain_target target

let post ~target ?(payload_bytes = 0) ?(context = "notify") f =
  (* Same-domain posts are plain procedure calls — but only from process
     context: an interrupt that preempted [target]'s own thread is still
     in the kernel for deferral purposes, and running [f] inline there
     would hand an irq-context update to state a paused call is using. *)
  if
    Domain.current () = target
    && (not (K.Sched.in_interrupt ()))
    && K.Sched.spin_depth () = 0
  then f ()
  else begin
    let q = queue_for target in
    (* Queue bound: a driver that posts without ever letting the queue
       drain is growing kernel memory without limit. Posting can run in
       irq context, so the violation cannot raise here — the overflow
       post is dropped and counted, and the campaign/supervisor judge
       the abuse from the counters. Deferred calls are one-way
       notifications, so a dropped one degrades freshness, not
       correctness. *)
    if Queue.length q >= Guard.limits.max_batch_queue then begin
      counters.dropped <- counters.dropped + 1;
      Boundary.note_dropped ();
      K.Klog.printk K.Klog.Warning
        "xpc-batch: queue for %s at bound %d, dropping deferred %s"
        (Domain.to_string target) Guard.limits.max_batch_queue context
    end
    else begin
    counters.posted <- counters.posted + 1;
    K.Ktrace.note
      (K.Ktrace.Queue ("batch:" ^ Domain.to_string target))
      K.Ktrace.Signal;
    Queue.push { payload_bytes; context; thunk = f; born = K.Clock.now () } q;
    let wqs, timer = get_infra () in
    if !enabled then begin
      if Queue.length q >= !watermark then
        queue_flush wqs (fun () -> deferred_drain target)
      else if not (K.Timer.pending timer) then
        K.Timer.mod_timer_in timer !flush_interval_ns
    end
    else queue_flush wqs (fun () -> deferred_drain target)
    end
  end

let doorbell () =
  if Hashtbl.length queues > 0 then
    if K.Sched.in_interrupt () || K.Sched.spin_depth () > 0 then begin
      let wqs, _ = get_infra () in
      List.iter
        (fun t -> queue_flush wqs (fun () -> deferred_drain t))
        (targets ())
    end
    else List.iter drain_target (targets ())

let drain () =
  List.iter drain_target (targets ());
  match !infra with
  | Some (_, wqs, _) -> Array.iter K.Workqueue.flush wqs
  | None -> ()

let pending () = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) queues 0

let set_enabled v = enabled := v
let batching_enabled () = !enabled

let configure ?watermark:w ?flush_interval_ns:i () =
  Option.iter (fun v -> watermark := max 1 v) w;
  Option.iter (fun v -> flush_interval_ns := max 1 v) i

let stats () = counters

let snapshot () =
  {
    posted = counters.posted;
    delivered = counters.delivered;
    flush_crossings = counters.flush_crossings;
    single_crossings = counters.single_crossings;
    max_batch = counters.max_batch;
    requeues = counters.requeues;
    dropped = counters.dropped;
  }

let () =
  K.Boot.on_reset @@ fun () ->
  Hashtbl.reset queues;
  infra := None;
  rr := 0;
  enabled := false;
  watermark := default_watermark;
  flush_interval_ns := default_flush_interval_ns;
  counters.posted <- 0;
  counters.delivered <- 0;
  counters.flush_crossings <- 0;
  counters.single_crossings <- 0;
  counters.max_batch <- 0;
  counters.requeues <- 0;
  counters.dropped <- 0
