(* Per-layer counters, read from the simulator's public stats at the end
   of each machine life (every boot resets them) and summed over the
   lives of one iteration. Everything here is simulated, so it is
   deterministic for a given workload and seed and goes into the digest. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc

type t = {
  mutable lives : int;
  mutable clock_events : int;
  mutable busy_ns : int;
  mutable elapsed_ns : int;
  mutable irq_delivered : int;
  mutable crossings : int;
  mutable c_java : int;
  mutable bytes : int;
  mutable failures : int;
  mutable retries : int;
  mutable lock_acquires : int;
  mutable lock_contended : int;
  mutable lock_wait_ns : int;
  mutable admissions : int;
  mutable blocked : int;
  mutable queue_wait_ns : int;
  mutable critical_path_ns : int;
  dispatch_latency : K.Latency.t;
  mutable posted : int;
  mutable delivered : int;
  mutable flushes : int;
  mutable batch_requeues : int;
  mutable batch_dropped : int;
  mutable produced : int;
  mutable consumed : int;
  mutable doorbells : int;
  mutable ring_overflow : int;
  mutable ring_rejected : int;
  mutable ring_discarded : int;
  mutable ring_requeues : int;
  mutable ring_high_water : int;
  mutable guard_checks : int;
  mutable guard_rejected : int;
  mutable boundary_dropped : int;
  mutable lookups : int;
  mutable hits : int;
  mutable registrations : int;
  mutable shards_used : int;
  mutable restarts : int;
  paths : (string, K.Latency.t) Hashtbl.t;
}

let create () =
  {
    lives = 0;
    clock_events = 0;
    busy_ns = 0;
    elapsed_ns = 0;
    irq_delivered = 0;
    crossings = 0;
    c_java = 0;
    bytes = 0;
    failures = 0;
    retries = 0;
    lock_acquires = 0;
    lock_contended = 0;
    lock_wait_ns = 0;
    admissions = 0;
    blocked = 0;
    queue_wait_ns = 0;
    critical_path_ns = 0;
    dispatch_latency = K.Latency.create ();
    posted = 0;
    delivered = 0;
    flushes = 0;
    batch_requeues = 0;
    batch_dropped = 0;
    produced = 0;
    consumed = 0;
    doorbells = 0;
    ring_overflow = 0;
    ring_rejected = 0;
    ring_discarded = 0;
    ring_requeues = 0;
    ring_high_water = 0;
    guard_checks = 0;
    guard_rejected = 0;
    boundary_dropped = 0;
    lookups = 0;
    hits = 0;
    registrations = 0;
    shards_used = 0;
    restarts = 0;
    paths = Hashtbl.create 16;
  }

(* Add the running machine's counters; call once per life, at
   quiescence and before the next boot. *)
let capture t =
  t.lives <- t.lives + 1;
  t.clock_events <- t.clock_events + K.Clock.scheduled ();
  t.busy_ns <- t.busy_ns + K.Clock.busy_ns ();
  t.elapsed_ns <- t.elapsed_ns + K.Clock.now ();
  for line = 0 to K.Irq.nr_irqs - 1 do
    t.irq_delivered <- t.irq_delivered + K.Irq.delivered line
  done;
  let ch = Xpc.Channel.snapshot () in
  t.crossings <- t.crossings + ch.Xpc.Channel.kernel_user_calls;
  t.c_java <- t.c_java + ch.Xpc.Channel.c_java_calls;
  t.bytes <- t.bytes + ch.Xpc.Channel.bytes_marshaled;
  t.failures <- t.failures + ch.Xpc.Channel.failures;
  t.retries <- t.retries + ch.Xpc.Channel.retries;
  let locks = K.Sync.Combolock.totals () in
  t.lock_acquires <-
    t.lock_acquires + locks.K.Sync.Combolock.spin_acquires
    + locks.K.Sync.Combolock.sem_acquires;
  t.lock_contended <- t.lock_contended + locks.K.Sync.Combolock.contended;
  t.lock_wait_ns <- t.lock_wait_ns + locks.K.Sync.Combolock.wait_ns;
  List.iter
    (fun (p : Xpc.Dispatch.pool_stats) ->
      t.admissions <- t.admissions + p.admissions;
      t.blocked <- t.blocked + p.blocked_acquires;
      t.queue_wait_ns <- t.queue_wait_ns + p.queue_wait_ns;
      t.critical_path_ns <- t.critical_path_ns + p.critical_path_ns;
      Array.iter
        (fun h -> K.Latency.merge ~into:t.dispatch_latency h)
        p.lane_latency)
    (Xpc.Dispatch.pool_stats ());
  let b = Xpc.Batch.snapshot () in
  t.posted <- t.posted + b.Xpc.Batch.posted;
  t.delivered <- t.delivered + b.Xpc.Batch.delivered;
  t.flushes <- t.flushes + b.Xpc.Batch.flush_crossings;
  t.batch_requeues <- t.batch_requeues + b.Xpc.Batch.requeues;
  t.batch_dropped <- t.batch_dropped + b.Xpc.Batch.dropped;
  let r = Xpc.Ring.snapshot () in
  t.produced <- t.produced + r.Xpc.Ring.produced;
  t.consumed <- t.consumed + r.Xpc.Ring.consumed;
  t.doorbells <- t.doorbells + r.Xpc.Ring.doorbells;
  t.ring_overflow <- t.ring_overflow + r.Xpc.Ring.overflow;
  t.ring_rejected <- t.ring_rejected + r.Xpc.Ring.rejected;
  t.ring_discarded <- t.ring_discarded + r.Xpc.Ring.discarded;
  t.ring_requeues <- t.ring_requeues + r.Xpc.Ring.requeues;
  t.ring_high_water <- max t.ring_high_water r.Xpc.Ring.high_water;
  let bt = Xpc.Boundary.totals in
  t.guard_checks <- t.guard_checks + bt.Xpc.Boundary.checks;
  t.guard_rejected <- t.guard_rejected + bt.Xpc.Boundary.rejected;
  t.boundary_dropped <- t.boundary_dropped + bt.Xpc.Boundary.dropped;
  let used = ref 0 in
  Array.iter
    (fun (s : Xpc.Objtracker.stats) ->
      t.lookups <- t.lookups + s.lookups;
      t.hits <- t.hits + s.hits;
      t.registrations <- t.registrations + s.registrations;
      if s.lookups > 0 then incr used)
    (Xpc.Channel.tracker_shards ());
  t.shards_used <- max t.shards_used !used;
  t.restarts <- t.restarts + Decaf_runtime.Runtime.restarts ();
  List.iter
    (fun p ->
      match K.Latency.find p with
      | Some h ->
          let acc =
            match Hashtbl.find_opt t.paths p with
            | Some acc -> acc
            | None ->
                let acc = K.Latency.create () in
                Hashtbl.replace t.paths p acc;
                acc
          in
          K.Latency.merge ~into:acc h
      | None -> ())
    (K.Latency.paths ())

(* The ring conservation law the simulator promises: every accepted slot
   is consumed, rejected, discarded at teardown, or still pending. *)
let ring_conserved () =
  let r = Xpc.Ring.stats () in
  r.Xpc.Ring.produced
  = r.Xpc.Ring.consumed + r.Xpc.Ring.rejected + r.Xpc.Ring.discarded
    + Xpc.Ring.pending ()

type pstat = { samples : int; p50_ns : int; p99_ns : int }

let pstat h =
  {
    samples = K.Latency.count h;
    p50_ns = K.Latency.percentile h 0.50;
    p99_ns = K.Latency.percentile h 0.99;
  }

let path_stats t =
  List.sort compare
    (Hashtbl.fold (fun p h acc -> (p, pstat h) :: acc) t.paths [])

(* Every simulated count above, for the digest. *)
let digest_items t =
  let i k v = (k, string_of_int v) in
  [
    i "lives" t.lives; i "clock.events" t.clock_events; i "busy_ns" t.busy_ns;
    i "elapsed_ns" t.elapsed_ns; i "irq.delivered" t.irq_delivered;
    i "xpc.crossings" t.crossings; i "xpc.c_java" t.c_java;
    i "xpc.bytes" t.bytes; i "xpc.failures" t.failures;
    i "xpc.retries" t.retries; i "sync.acquires" t.lock_acquires;
    i "sync.contended" t.lock_contended; i "sync.wait_ns" t.lock_wait_ns;
    i "dispatch.admissions" t.admissions; i "dispatch.blocked" t.blocked;
    i "dispatch.queue_wait_ns" t.queue_wait_ns;
    i "dispatch.critical_path_ns" t.critical_path_ns;
    i "dispatch.count" (K.Latency.count t.dispatch_latency);
    i "dispatch.sum_ns" (K.Latency.sum_ns t.dispatch_latency);
    i "batch.posted" t.posted; i "batch.delivered" t.delivered;
    i "batch.flushes" t.flushes; i "batch.requeues" t.batch_requeues;
    i "batch.dropped" t.batch_dropped; i "ring.produced" t.produced;
    i "ring.consumed" t.consumed; i "ring.doorbells" t.doorbells;
    i "ring.overflow" t.ring_overflow; i "ring.rejected" t.ring_rejected;
    i "ring.discarded" t.ring_discarded; i "ring.requeues" t.ring_requeues;
    i "ring.high_water" t.ring_high_water; i "guard.checks" t.guard_checks;
    i "guard.rejected" t.guard_rejected;
    i "boundary.dropped" t.boundary_dropped; i "tracker.lookups" t.lookups;
    i "tracker.hits" t.hits; i "tracker.registrations" t.registrations;
    i "tracker.shards_used" t.shards_used; i "restarts" t.restarts;
  ]
  @ List.concat_map
      (fun (p, h) ->
        [
          i (p ^ ".count") (K.Latency.count h);
          i (p ^ ".sum_ns") (K.Latency.sum_ns h);
          i (p ^ ".max_ns") (K.Latency.max_ns h);
        ])
      (List.sort compare (Hashtbl.fold (fun p h acc -> (p, h) :: acc) t.paths []))
