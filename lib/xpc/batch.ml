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

let queues : (Domain.t, item Queue.t) Hashtbl.t = Hashtbl.create 4
let latency = K.Latency.path "xpc.batch"

let trace =
  Domain.tabulate (fun d -> K.Ktrace.Queue ("batch:" ^ Domain.to_string d))

let queue_for target =
  match Hashtbl.find_opt queues target with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace queues target q;
      q

(* Flush the whole queue [q] for [target] with ONE crossing: the
   deferred thunks run inside a single Channel.call, so N calls pay one
   pair of crossings plus their summed payload bytes. The crossing is
   idempotent (deferred calls are one-way notifications applied by
   overwriting), so it reuses Channel's timeout/retry machinery; if even
   the retries fail, the batch is requeued in front of anything posted
   meanwhile — the fault model fires before the batch body runs, so
   nothing was delivered and nothing is duplicated. *)
let flush_batch target q =
  (* The flush crosses the boundary and may block; catching a call from
     irq context (or an irq-window hook) here names the batch machinery
     instead of surfacing deep inside Channel. *)
  K.Sched.assert_may_block "batch flush";
  K.Ktrace.note (trace target) K.Ktrace.Wait;
  let batch = Queue.create () in
  Queue.transfer q batch;
  let n = Queue.length batch in
  let bytes = Queue.fold (fun acc it -> acc + it.payload_bytes) 0 batch in
  match
    Channel.call ~target ~payload_bytes:bytes ~reply_bytes:0 ~idempotent:true
      ~context:"batch.flush"
      (fun () ->
        Queue.iter
          (fun it ->
            it.thunk ();
            K.Latency.observe_at latency (Int.max 0 (K.Clock.now () - it.born)))
          batch)
  with
  | () ->
      counters.flush_crossings <- counters.flush_crossings + 1;
      counters.delivered <- counters.delivered + n;
      if n > counters.max_batch then counters.max_batch <- n;
      true
  | exception Channel.Xpc_failure _ ->
      counters.requeues <- counters.requeues + 1;
      (* batch first, then whatever was posted during the attempt *)
      Queue.transfer q batch;
      Queue.transfer batch q;
      false

(* Unbatched path: deliver the oldest deferred call with its own
   crossing, under its own name (so fault plans target the call, not the
   batching machinery). This is the cost baseline batching is measured
   against. *)
let flush_one target q =
  K.Sched.assert_may_block "batch single-delivery flush";
  K.Ktrace.note (trace target) K.Ktrace.Wait;
  let it = Queue.pop q in
  match
    Channel.call ~target ~payload_bytes:it.payload_bytes ~reply_bytes:0
      ~idempotent:true ~context:it.context
      (fun () ->
        it.thunk ();
        K.Latency.observe_at latency (Int.max 0 (K.Clock.now () - it.born)))
  with
  | () ->
      counters.single_crossings <- counters.single_crossings + 1;
      counters.delivered <- counters.delivered + 1;
      true
  | exception Channel.Xpc_failure _ ->
      counters.requeues <- counters.requeues + 1;
      let rest = Queue.create () in
      Queue.transfer q rest;
      Queue.push it q;
      Queue.transfer rest q;
      false

(* The doorbell core's flush: deliver [target]'s queue now, batched or
   one crossing per call; [false] when a crossing failed and its calls
   stayed queued. *)
let flush d target =
  match Hashtbl.find_opt queues target with
  | None -> true
  | Some q when Doorbell.enabled d -> Queue.is_empty q || flush_batch target q
  | Some q ->
      let ok = ref true in
      for _ = 1 to Queue.length q do
        if not (Queue.is_empty q || flush_one target q) then ok := false
      done;
      !ok

let targets () = Hashtbl.fold (fun t _ acc -> t :: acc) queues []

let core =
  Doorbell.create ~name:"xpc-batch" ~watermark:32
    ~interval_ns:10_000_000 (* 10 ms latency bound *)
    ~keys:targets ~target:Fun.id ~flush

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
    K.Ktrace.note (trace target) K.Ktrace.Signal;
    Queue.push { payload_bytes; context; thunk = f; born = K.Clock.now () } q;
    if Doorbell.enabled core then
      Doorbell.trigger core target ~fill:(Queue.length q)
    else Doorbell.kick core target
    end
  end

let doorbell () =
  if Hashtbl.length queues > 0 then
    if K.Sched.in_interrupt () || K.Sched.spin_depth () > 0 then
      Doorbell.kick_all core
    else List.iter (fun t -> Doorbell.drain core t) (targets ())

let drain () = Doorbell.drain_all core
let pending () = Hashtbl.fold (fun _ q acc -> acc + Queue.length q) queues 0
let set_enabled v = Doorbell.set_enabled core v
let stats () = counters
let snapshot () = { counters with posted = counters.posted }

let () =
  K.Boot.on_reset @@ fun () ->
  Hashtbl.reset queues;
  counters.posted <- 0;
  counters.delivered <- 0;
  counters.flush_crossings <- 0;
  counters.single_crossings <- 0;
  counters.max_batch <- 0;
  counters.requeues <- 0;
  counters.dropped <- 0
