(* Acceptance tests for the XPC fast path: batching+delta must pay for
   itself on the paper's heaviest workload (netperf on the E1000 decaf
   driver) without giving back throughput, and the concurrent dispatch
   engine must shorten the dispatch critical path — and therefore raise
   cost-adjusted goodput — as workers are added. *)

module E = Decaf_experiments
module K = Decaf_kernel
module Xpc = Decaf_xpc

let check_bool = Alcotest.(check bool)

let w1 = 1

let test_netperf_e1000_gain () =
  let duration_ns = 300_000_000 in
  let off =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = false;
        delta = false;
        workers = w1;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let on =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers = w1;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let fi = float_of_int in
  Alcotest.(check string) "same scenario" off.E.Xpcperf.scenario
    on.E.Xpcperf.scenario;
  check_bool
    (Printf.sprintf "crossings down >=30%% (%d -> %d)" off.E.Xpcperf.crossings
       on.E.Xpcperf.crossings)
    true
    (fi on.E.Xpcperf.crossings <= 0.7 *. fi off.E.Xpcperf.crossings);
  check_bool
    (Printf.sprintf "bytes_marshaled down >=20%% (%d -> %d)"
       off.E.Xpcperf.bytes on.E.Xpcperf.bytes)
    true
    (fi on.E.Xpcperf.bytes <= 0.8 *. fi off.E.Xpcperf.bytes);
  check_bool
    (Printf.sprintf "goodput holds (%.2f vs %.2f Mb/s)"
       (E.Xpcperf.perf off) (E.Xpcperf.perf on))
    true
    (E.Xpcperf.perf on >= 0.99 *. E.Xpcperf.perf off);
  check_bool "every deferred call was delivered" true
    (on.E.Xpcperf.posted = on.E.Xpcperf.delivered);
  check_bool "batching actually batched" true
    (on.E.Xpcperf.flushes > 0
    && on.E.Xpcperf.flushes < on.E.Xpcperf.delivered)

let test_netperf_e1000_workers () =
  let duration_ns = 300_000_000 in
  let run workers =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers;
        guard = true;
        ring = false;
        instances = 1;
      }
      ~duration_ns
  in
  let s1 = run 1 in
  let s4 = run 4 in
  (* The lane accounting must show a shorter critical path with more
     workers, and the cost-adjusted goodput must strictly improve. *)
  check_bool
    (Printf.sprintf "dispatch critical path shrinks (%d -> %d ns)"
       s1.E.Xpcperf.xpc_ns s4.E.Xpcperf.xpc_ns)
    true
    (s4.E.Xpcperf.xpc_ns < s1.E.Xpcperf.xpc_ns);
  check_bool
    (Printf.sprintf "goodput strictly higher at w4 (%d -> %d milliMb/s)"
       s1.E.Xpcperf.perf_milli s4.E.Xpcperf.perf_milli)
    true
    (s4.E.Xpcperf.perf_milli > s1.E.Xpcperf.perf_milli);
  (* Sharded object tracker and combolock accounting are live and
     surfaced through the experiment's counters. *)
  check_bool "objtracker shards saw hits" true (s4.E.Xpcperf.shard_hits > 0);
  check_bool "at least one shard used" true (s4.E.Xpcperf.shards_used >= 1);
  (* The last run's whole-machine counters are still live: Channel.stats
     must report lock accounting and per-shard tracker traffic. *)
  let ch = Xpc.Channel.stats () in
  check_bool "combolock acquisitions reported" true
    (ch.Xpc.Channel.lock_acquires > 0);
  let shards = Xpc.Channel.tracker_shards () in
  check_bool "tracker is sharded" true (Array.length shards > 1);
  let hits =
    Array.fold_left (fun acc s -> acc + s.Xpc.Objtracker.hits) 0 shards
  in
  check_bool "per-shard hits reported through Channel" true (hits > 0);
  (* The dispatch pool stats expose per-lane service counts: at w4 the
     Decaf_driver pool must have spread upcalls over several lanes. *)
  let pools = Xpc.Dispatch.pool_stats () in
  let spread =
    List.exists
      (fun p ->
        Array.fold_left (fun acc n -> if n > 0 then acc + 1 else acc) 0
          p.Xpc.Dispatch.lane_served
        > 1)
      pools
  in
  check_bool "upcalls spread across lanes" true spread

(* The fast ring cell: one e1000 send run with and without the shared
   ring under batch+delta. The ring must collapse the data-path
   crossings — each batch flush becomes at most one doorbell, for a
   >= 5x reduction — without giving back goodput or dropping slots. *)
let test_netperf_e1000_ring () =
  let duration_ns = 300_000_000 in
  let run ring =
    E.Xpcperf.e1000_net `Send
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers = w1;
        guard = true;
        ring;
        instances = 1;
      }
      ~duration_ns
  in
  let bd = run false in
  let rg = run true in
  check_bool "ring produced slot records" true (rg.E.Xpcperf.ring_produced > 0);
  check_bool
    (Printf.sprintf "doorbells >=5x fewer than flushes (%d flushes -> %d bells)"
       bd.E.Xpcperf.flushes rg.E.Xpcperf.doorbells)
    true
    (rg.E.Xpcperf.doorbells > 0
    && rg.E.Xpcperf.doorbells * 5 <= bd.E.Xpcperf.flushes);
  check_bool
    (Printf.sprintf "total crossings do not grow (%d -> %d)"
       bd.E.Xpcperf.crossings rg.E.Xpcperf.crossings)
    true
    (rg.E.Xpcperf.crossings <= bd.E.Xpcperf.crossings);
  check_bool "no ring slots lost" true (rg.E.Xpcperf.ring_drops = 0);
  check_bool
    (Printf.sprintf "goodput within 5%% (%.2f vs %.2f Mb/s)"
       (E.Xpcperf.perf bd) (E.Xpcperf.perf rg))
    true
    (E.Xpcperf.perf rg >= 0.95 *. E.Xpcperf.perf bd);
  check_bool "batch-only run rang no doorbells" true
    (bd.E.Xpcperf.doorbells = 0)

(* The --scenario/--config filters behind `decafctl xpcperf`: a single
   matrix cell must be selectable by exact name. *)
let test_measure_filters () =
  check_bool "scenario names listed" true
    (List.mem "e1000-netperf-send" E.Xpcperf.scenario_names);
  check_bool "ring config listed" true
    (List.mem "batch+delta+w1+ring" (E.Xpcperf.config_names ()));
  let cell =
    E.Xpcperf.measure ~duration_ns:20_000_000
      ~scenario:"8139too-netperf-send" ~config:"batch+delta+w1" ()
  in
  match cell with
  | [ s ] ->
      Alcotest.(check string) "right scenario" "8139too-netperf-send"
        s.E.Xpcperf.scenario;
      Alcotest.(check string) "right config" "batch+delta+w1"
        (E.Xpcperf.config_name s.E.Xpcperf.config)
  | l ->
      Alcotest.fail
        (Printf.sprintf "expected exactly one cell, got %d" (List.length l))

(* A cell measures the same thing whatever ran before it in the process:
   every boot resets the address allocator the tracker shards hash and
   the cursors that pick flush workqueues. A-B-A: the fleet cell, then a
   netperf cell, then the fleet cell again. [shards_used] alone can match
   by chance, so the per-shard traffic is compared too. *)
let test_cell_ignores_history () =
  let duration_ns = 20_000_000 in
  let fleet () =
    let s =
      E.Xpcperf.measure ~duration_ns ~scenario:"e1000-fleet"
        ~config:"batch+delta+w4+ring+i16" ()
    in
    let shards =
      Array.map
        (fun (st : Xpc.Objtracker.stats) ->
          (st.Xpc.Objtracker.lookups, st.Xpc.Objtracker.hits))
        (Xpc.Channel.tracker_shards ())
    in
    (s, Array.to_list shards)
  in
  let a, a_shards = fleet () in
  ignore
    (E.Xpcperf.measure ~duration_ns ~scenario:"e1000-netperf-send"
       ~config:"batch+delta+w1" ());
  let a', a'_shards = fleet () in
  check_bool "same sample after another cell ran" true (a = a');
  Alcotest.(check (list (pair int int)))
    "same per-shard lookups and hits" a_shards a'_shards

(* --- the acceptance gates, on hand-made matrices --- *)

let sample ?(fleet = (0, 0)) scenario instances perf_milli =
  let fair_min_milli, fair_max_milli = fleet in
  {
    E.Xpcperf.scenario;
    config =
      {
        E.Xpcperf.batching = true;
        delta = true;
        workers = 4;
        guard = true;
        ring = true;
        instances;
      };
    crossings = 123;
    c_java = 45;
    bytes = 6789;
    posted = 10;
    delivered = 10;
    flushes = 3;
    doorbells = 2;
    ring_produced = 64;
    ring_drops = 0;
    xpc_ns = 250_000;
    lock_contended = 7;
    lock_wait_ns = 12_500;
    shard_hits = 90;
    shards_used = 5;
    perf_milli;
    perf_unit = "Mb/s";
    fair_min_milli;
    fair_mean_milli = (fair_min_milli + fair_max_milli) / 2;
    fair_max_milli;
  }

(* The fleet's i1 and i64 cells, at [scale] times the single instance's
   aggregate and with the given per-instance (min, max) at i64. *)
let fleet ~scale ~spread:(lo, hi) =
  [
    sample ~fleet:(1_000, 1_000) "e1000-fleet" 1 1_000;
    sample ~fleet:(lo, hi) "e1000-fleet" 64 (scale * 1_000);
  ]

let sound = fleet ~scale:8 ~spread:(120, 130)

let complaints samples = List.length (E.Xpcperf.acceptance samples)

let test_acceptance_sound () =
  Alcotest.(check (list string)) "a sound matrix passes" []
    (E.Xpcperf.acceptance sound)

let test_acceptance_fleet_scaling () =
  Alcotest.(check int) "i64 at 7x the i1 aggregate" 1
    (complaints (fleet ~scale:7 ~spread:(100, 110)))

(* An instance that moved nothing is the widest spread of all. *)
let test_acceptance_fleet_spread () =
  Alcotest.(check int) "max/min 2.1x at i64" 1
    (complaints (fleet ~scale:8 ~spread:(100, 210)));
  Alcotest.(check int) "an instance starved at i64" 1
    (complaints (fleet ~scale:8 ~spread:(0, 100)))

(* A filtered run measures part of the matrix: a gate whose cells it
   did not measure has nothing to compare, while the others still
   hold. *)
let test_acceptance_partial () =
  let i64 = List.nth (fleet ~scale:7 ~spread:(100, 110)) 1 in
  Alcotest.(check int) "i64 alone: no scaling baseline" 0 (complaints [ i64 ]);
  Alcotest.(check int) "i64 alone is still held to its spread" 1
    (complaints [ { i64 with E.Xpcperf.fair_max_milli = 300 } ])

(* A cell that repeats a sibling of its scenario in every measured field
   prices nothing: its axis does not reach that scenario. *)
let test_acceptance_twins () =
  let cell config = { (sample "psmouse-move" 1 5_000) with E.Xpcperf.config } in
  let w1 = (sample "psmouse-move" 1 5_000).E.Xpcperf.config in
  let w4 = { w1 with E.Xpcperf.workers = 4 } in
  Alcotest.(check int) "two equal cells of one scenario" 1
    (complaints (sound @ [ cell w1; cell w4 ]));
  Alcotest.(check int) "equal cells of two scenarios" 0
    (complaints
       (sound
       @ [ cell w1; { (cell w4) with E.Xpcperf.scenario = "ens1371-mpg123" } ]
       ))

(* --- the knob table: every cost field reaches what it prices --- *)

(* A charge that escapes the XPC account leaves its knob's cells
   unmoved. Each of the 17 [Cost] fields is doubled in turn, the cells
   below re-run at reduced length, and each row's declared readings must
   change while its kept ones stay. *)

let send = ("e1000-netperf-send", "batch+delta+w1")
let send_serial = ("e1000-netperf-send", "nobatch+full+w1")
let send_w4 = ("e1000-netperf-send", "batch+delta+w4")
let send_noguard = ("e1000-netperf-send", "batch+delta+w1+noguard")
let send_ring = ("e1000-netperf-send", "batch+delta+w1+ring")
let rtl = ("8139too-netperf-send", "batch+delta+w1")
let mouse = ("psmouse-move", "batch+delta+w1")
let audio = ("ens1371-mpg123", "batch+delta+w1")
let e1000 = [ send; send_serial; send_w4; send_noguard; send_ring ]
let nics = rtl :: e1000
let cells = nics @ [ mouse; audio ]
let except dropped = List.filter (fun c -> not (List.mem c dropped)) cells

(* The cells that pay guard checks, and those with no tracked object. *)
let guarded = [ send; send_serial; send_w4; send_ring; rtl ]
let untracked = [ mouse; audio ]

(* Cells with no combolock wait: their [xpc_ns] is XPC charges alone. In
   the e1000 cells a wait's length follows the timing of everything
   else, and waits are credited too, so any knob can move it there. *)
let quiet = [ rtl; mouse; audio ]

(* One pass: every cell's sample and e1000's Table 3 init latency, decaf
   and native. *)
type pass = {
  samples : ((string * string) * E.Xpcperf.sample) list;
  init : int;
  native_init : int;
}

let knob_duration_ns = 20_000_000

let measure_pass () =
  let sample ((scenario, config) as c) =
    match
      E.Xpcperf.measure ~duration_ns:knob_duration_ns ~scenario ~config ()
    with
    | [ s ] -> (c, s)
    | _ -> Alcotest.failf "%s %s is not a measured cell" scenario config
  in
  let init mode =
    (E.Table3.cell "e1000" "netperf-send" ~duration_ns:knob_duration_ns mode)
      .E.Table3.init_ns
  in
  {
    samples = List.map sample cells;
    init = init Decaf_drivers.Driver_env.Decaf;
    native_init = init Decaf_drivers.Driver_env.Native;
  }

(* A reading: one number of a pass, named for the failure message. *)
type reading = string * (pass -> int)

let field name get cells : reading list =
  List.map
    (fun ((scenario, config) as c) ->
      ( Printf.sprintf "%s of %s %s" name scenario config,
        fun p -> get (List.assoc c p.samples) ))
    cells

let xpc = field "xpc_ns" (fun s -> s.E.Xpcperf.xpc_ns)
let perf = field "perf_milli" (fun s -> s.E.Xpcperf.perf_milli)
let init : reading list = [ ("e1000 Table 3 init latency", fun p -> p.init) ]

(* The native build is kernel code: only device and scheduler costs
   reach it, never an XPC one. *)
let native_init : reading list =
  [ ("e1000 native Table 3 init latency", fun p -> p.native_init) ]

(* No knob changes what crosses: the counts stay in every cell. *)
let counts =
  List.concat_map
    (fun (name, get) -> field name get cells)
    E.Xpcperf.
      [
        ("crossings", fun s -> s.crossings);
        ("c_java", fun s -> s.c_java);
        ("bytes", fun s -> s.bytes);
        ("posted", fun s -> s.posted);
        ("delivered", fun s -> s.delivered);
        ("flushes", fun s -> s.flushes);
        ("doorbells", fun s -> s.doorbells);
        ("ring_produced", fun s -> s.ring_produced);
        ("ring_drops", fun s -> s.ring_drops);
        ("lock_contended", fun s -> s.lock_contended);
        ("shard_hits", fun s -> s.shard_hits);
        ("shards_used", fun s -> s.shards_used);
      ]

type knob = {
  k_name : string;
  get : K.Cost.t -> int;
  set : K.Cost.t -> int -> unit;
  moves : reading list;
  keeps : reading list;
}

let knob k_name get set ~moves ~keeps =
  {
    k_name;
    get;
    set;
    moves = List.concat moves;
    keeps = counts @ List.concat keeps;
  }

let knobs =
  K.Cost.
    [
      (* non-XPC costs: what they price moves, the quiet cells' XPC
         account does not *)
      knob "syscall_ns" (fun c -> c.syscall_ns) (fun c v -> c.syscall_ns <- v)
        ~moves:[ perf nics ] ~keeps:[ xpc quiet ];
      knob "irq_dispatch_ns" (fun c -> c.irq_dispatch_ns)
        (fun c v -> c.irq_dispatch_ns <- v)
        ~moves:[ perf (mouse :: nics) ] ~keeps:[ xpc quiet ];
      knob "port_io_ns" (fun c -> c.port_io_ns) (fun c v -> c.port_io_ns <- v)
        ~moves:[ perf [ rtl; mouse ] ]
        ~keeps:[ xpc cells; perf e1000; init ];
      knob "mmio_ns" (fun c -> c.mmio_ns) (fun c v -> c.mmio_ns <- v)
        ~moves:[ perf e1000; init; native_init ] ~keeps:[ xpc quiet ];
      knob "jvm_startup_ns" (fun c -> c.jvm_startup_ns)
        (fun c v -> c.jvm_startup_ns <- v)
        ~moves:[ init ] ~keeps:[ xpc cells; perf cells; native_init ];
      (* the crossing legs: every cell crosses *)
      knob "xpc_kernel_user_ns" (fun c -> c.xpc_kernel_user_ns)
        (fun c v -> c.xpc_kernel_user_ns <- v)
        ~moves:[ xpc cells; init ] ~keeps:[ native_init ];
      knob "xpc_c_java_ns" (fun c -> c.xpc_c_java_ns)
        (fun c v -> c.xpc_c_java_ns <- v)
        ~moves:[ xpc cells; init ] ~keeps:[ native_init ];
      knob "ctx_switch_ns" (fun c -> c.ctx_switch_ns)
        (fun c v -> c.ctx_switch_ns <- v)
        ~moves:[ xpc cells; init; native_init ] ~keeps:[];
      knob "marshal_byte_ns" (fun c -> c.marshal_byte_ns)
        (fun c v -> c.marshal_byte_ns <- v)
        ~moves:[ xpc cells; init ] ~keeps:[ native_init ];
      knob "remarshal_byte_ns" (fun c -> c.remarshal_byte_ns)
        (fun c v -> c.remarshal_byte_ns <- v)
        ~moves:[ xpc cells; init ] ~keeps:[ native_init ];
      knob "xpc_dispatch_ns" (fun c -> c.xpc_dispatch_ns)
        (fun c v -> c.xpc_dispatch_ns <- v)
        ~moves:[ xpc cells; init ] ~keeps:[ native_init ];
      (* the tracker and its shard locks: only the NICs track objects *)
      knob "objtracker_lookup_ns" (fun c -> c.objtracker_lookup_ns)
        (fun c v -> c.objtracker_lookup_ns <- v)
        ~moves:[ xpc nics ] ~keeps:[ xpc untracked; native_init ];
      knob "spinlock_ns" (fun c -> c.spinlock_ns)
        (fun c v -> c.spinlock_ns <- v)
        ~moves:[ xpc nics ] ~keeps:[ xpc untracked ];
      knob "semaphore_ns" (fun c -> c.semaphore_ns)
        (fun c v -> c.semaphore_ns <- v)
        ~moves:[ xpc nics ] ~keeps:[ xpc untracked ];
      (* kernel-side checks, off every lane; perf stays wire-bound *)
      knob "guard_check_ns" (fun c -> c.guard_check_ns)
        (fun c v -> c.guard_check_ns <- v)
        ~moves:[ xpc guarded ]
        ~keeps:[ xpc (send_noguard :: untracked); perf cells; native_init ];
      (* slot writes (off-lane, the producer) and reads (the drain) *)
      knob "ring_slot_write_ns" (fun c -> c.ring_slot_write_ns)
        (fun c v -> c.ring_slot_write_ns <- v)
        ~moves:[ xpc [ send_ring ] ]
        ~keeps:[ xpc (except [ send_ring ]); perf cells; init; native_init ];
      knob "ring_slot_read_ns" (fun c -> c.ring_slot_read_ns)
        (fun c v -> c.ring_slot_read_ns <- v)
        ~moves:[ xpc [ send_ring ] ]
        ~keeps:[ xpc (except [ send_ring ]); perf cells; init; native_init ];
    ]

let test_knob_table () =
  check_bool "every Cost field has one row" true
    (List.length (List.sort_uniq compare (List.map (fun k -> k.k_name) knobs))
    = 17);
  let base = measure_pass () in
  let failures =
    List.concat_map
      (fun k ->
        let v = k.get K.Cost.current in
        k.set K.Cost.current (2 * v);
        let doubled =
          Fun.protect
            ~finally:(fun () -> k.set K.Cost.current v)
            measure_pass
        in
        let fail what (name, read) =
          Printf.sprintf "doubling %s %s %s (%d -> %d)" k.k_name what name
            (read base) (read doubled)
        in
        List.filter_map
          (fun ((_, read) as r) ->
            if read doubled = read base then Some (fail "leaves" r) else None)
          k.moves
        @ List.filter_map
            (fun ((_, read) as r) ->
              if read doubled <> read base then Some (fail "moves" r)
              else None)
            k.keeps)
      knobs
  in
  Alcotest.(check (list string)) "every knob moves what it prices" []
    failures;
  check_bool "the table restores every cost" true (measure_pass () = base)

let () =
  Alcotest.run "xpcperf"
    [
      ( "acceptance",
        [
          Alcotest.test_case "netperf e1000 batching+delta pays" `Quick
            test_netperf_e1000_gain;
          Alcotest.test_case "netperf e1000 scales with workers" `Quick
            test_netperf_e1000_workers;
          Alcotest.test_case "netperf e1000 ring collapses crossings" `Quick
            test_netperf_e1000_ring;
          Alcotest.test_case "measure filters select one cell" `Quick
            test_measure_filters;
          Alcotest.test_case "a cell ignores what ran before it" `Quick
            test_cell_ignores_history;
          Alcotest.test_case "a sound matrix passes" `Quick
            test_acceptance_sound;
          Alcotest.test_case "fleet under 8x fails" `Quick
            test_acceptance_fleet_scaling;
          Alcotest.test_case "fleet spread over 2x fails" `Quick
            test_acceptance_fleet_spread;
          Alcotest.test_case "a partial matrix keeps its gates" `Quick
            test_acceptance_partial;
          Alcotest.test_case "twin cells fail" `Quick test_acceptance_twins;
          Alcotest.test_case "every cost knob moves what it prices" `Quick
            test_knob_table;
        ] );
    ]
