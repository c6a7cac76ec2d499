(* One iteration of a workload: its host timings, the control ops it
   issued, the correctness violations it found, and the simulated
   results that the metrics and the digest are computed from. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc

(* Durations of the control ops of one kind, in host and virtual ns. *)
type op_kind = { host : K.Latency.t; virt : K.Latency.t }

type t = {
  layers : Layers.t;
  mutable setup_ns : int list;  (** host ns of each machine set-up *)
  mutable boot_ns : int list;  (** host ns of each boot plus device models *)
  mutable mark : int;
  mutable run_t0 : int;
  mutable run_ns : int;
  mutable gc0 : Host.gc;
  mutable gc1 : Host.gc;
  ops : (string, op_kind) Hashtbl.t;  (** control ops by kind *)
  all_ops : K.Latency.t;  (** virtual durations of every control op *)
  mutable failed_ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable violations : string list;
  mutable goodput_mbps : float;
  mutable cpu_util : float;
  mutable port_mbps : float list;  (** per-port goodput, for fair_spread *)
  mutable paths : (string * Layers.pstat) list;  (** virtual latency per path *)
  mutable counts : (string * int) list;  (** workload-level counters *)
}

let create () =
  let g = Host.gc () in
  {
    layers = Layers.create ();
    setup_ns = [];
    boot_ns = [];
    mark = 0;
    run_t0 = 0;
    run_ns = 0;
    gc0 = g;
    gc1 = g;
    ops = Hashtbl.create 16;
    all_ops = K.Latency.create ();
    failed_ops = 0;
    attempted = 0;
    failed = 0;
    violations = [];
    goodput_mbps = 0.;
    cpu_util = 0.;
    port_mbps = [];
    paths = [];
    counts = [];
  }

let violation m fmt =
  Printf.ksprintf (fun s -> m.violations <- s :: m.violations) fmt

let check m ok fmt =
  Printf.ksprintf (fun s -> if not ok then m.violations <- s :: m.violations) fmt

let setup_begin m = m.mark <- Host.now_ns ()
let setup_end m = m.setup_ns <- (Host.now_ns () - m.mark) :: m.setup_ns

let run_begin m =
  m.gc0 <- Host.gc ();
  m.run_t0 <- Host.now_ns ()

let run_end m =
  m.run_ns <- Host.now_ns () - m.run_t0;
  m.gc1 <- Host.gc ()

(* A span plus a host timing around boot and the device models. *)
let boot m f =
  Spans.with_span "boot" (fun () ->
      let t0 = Host.now_ns () in
      let v = f () in
      m.boot_ns <- (Host.now_ns () - t0) :: m.boot_ns;
      v)

(* One control op through a public entry point, timed in host and
   virtual ns. [f] says whether the op succeeded; an op also fails when
   it cost an XPC failure. Must run inside a scheduler thread. *)
let op m kind f =
  Spans.with_span kind (fun () ->
      let failures0 = (Xpc.Channel.stats ()).Xpc.Channel.failures in
      let v0 = K.Clock.now () and h0 = Host.now_ns () in
      let ok = f () in
      let h1 = Host.now_ns () and v1 = K.Clock.now () in
      let k =
        match Hashtbl.find_opt m.ops kind with
        | Some k -> k
        | None ->
            let k = { host = K.Latency.create (); virt = K.Latency.create () } in
            Hashtbl.replace m.ops kind k;
            k
      in
      K.Latency.observe k.host (h1 - h0);
      K.Latency.observe k.virt (v1 - v0);
      K.Latency.observe m.all_ops (v1 - v0);
      let ok = ok && (Xpc.Channel.stats ()).Xpc.Channel.failures = failures0 in
      if not ok then m.failed_ops <- m.failed_ops + 1;
      ok)

let ok_unit = function Ok () -> true | Error _ -> false

let tracker_entries () =
  Xpc.Objtracker.count (Decaf_runtime.Runtime.kernel_tracker ())
  + Xpc.Objtracker.count (Decaf_runtime.Runtime.java_tracker ())

type baseline = { entries : int; kmalloc_bytes : int }

(* Taken right after boot, before any driver binds. *)
let baseline () =
  { entries = tracker_entries (); kmalloc_bytes = snd (K.Kmem.outstanding ()) }

(* The quiescence checks every machine life must pass once every
   binding is unloaded and the batch queues are drained; then the life's
   counters join the totals. *)
let quiescent m ~what b =
  let leaked = tracker_entries () - b.entries in
  let bytes = snd (K.Kmem.outstanding ()) - b.kmalloc_bytes in
  check m (leaked = 0) "%s: %d tracker entries leaked" what leaked;
  check m (bytes = 0) "%s: %d kmalloc bytes leaked" what bytes;
  check m (Layers.ring_conserved ())
    "%s: ring conservation broken (produced <> consumed + rejected + \
     discarded + pending)"
    what;
  Layers.capture m.layers

(* A fresh machine on the XPC configuration every workload shares: the
   best parallel point of BENCH_xpc.json (batch + delta + 4 workers +
   ring, guard on). Scenario.boot leaves the simulated address allocator
   (Decaf_xpc.Addr) where the previous machine stopped, and tracker
   shards are picked by hashing those addresses; resetting it makes
   every boot simulate what the first boot of a process does. *)
let boot_machine () =
  Decaf_experiments.Scenario.boot ();
  Xpc.Addr.reset ();
  Xpc.Batch.set_enabled true;
  Xpc.Marshal_plan.set_delta_enabled true;
  Xpc.Dispatch.set_workers 4;
  Xpc.Guard.set_enabled true;
  Xpc.Ring.set_enabled true

let in_thread f = Spans.around_sched (fun () -> Decaf_experiments.Scenario.in_thread f)

let op_count m = K.Latency.count m.all_ops

(* max/min per-port goodput; infinity when a port carried nothing. *)
let fair_spread m =
  match m.port_mbps with
  | [] -> infinity
  | r :: rest ->
      let lo = List.fold_left min r rest and hi = List.fold_left max r rest in
      if lo <= 0. then infinity else hi /. lo
