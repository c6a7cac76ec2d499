(* Acceptance tests for the XPC fast path: batching+delta must pay for
   itself on the paper's heaviest workload (netperf on the E1000 decaf
   driver) without giving back throughput, and the concurrent dispatch
   engine must shorten the dispatch critical path — and therefore raise
   cost-adjusted goodput — as workers are added. *)

module E = Decaf_experiments
module K = Decaf_kernel
module Xpc = Decaf_xpc

let check_bool = Alcotest.(check bool)

(* One matrix cell, by the names the table prints. *)
let cell ?(duration_ns = E.Xpcperf.default_duration_ns) scenario config =
  match E.Xpcperf.measure ~duration_ns ~scenario ~config () with
  | [ s ] -> s
  | _ -> Alcotest.failf "%s %s is not a measured cell" scenario config

let send_cell = cell "e1000-netperf-send"

let test_netperf_e1000_gain () =
  let off = send_cell "nobatch+full+w1" in
  let on = send_cell "batch+delta+w1" in
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
  let s1 = send_cell "batch+delta+w1" in
  let s4 = send_cell "batch+delta+w4" in
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
  let bd = send_cell "batch+delta+w1" in
  let rg = send_cell "batch+delta+w1+ring" in
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
        E.Xpcperf.serial with
        batching = true;
        delta = true;
        workers = 4;
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
    init_ns = 330_000_000;
    init_crossings = 21;
    cpu_milli = 150;
  }

(* The fleet's i1 and i64 cells, at [scale] times the single instance's
   aggregate and with the given per-instance (min, max) at i64. *)
let fleet ~scale ~spread:(lo, hi) =
  [
    sample ~fleet:(1_000, 1_000) "e1000-fleet" 1 1_000;
    sample ~fleet:(lo, hi) "e1000-fleet" 64 (scale * 1_000);
  ]

(* Table 3's e1000 send row: the serial decaf cell and its native twin,
   which crosses nothing, at the shape the paper reports. *)
let decaf =
  {
    (sample "e1000-netperf-send" 1 996_947) with
    E.Xpcperf.config = E.Xpcperf.serial;
    init_ns = 350_679_820;
    init_crossings = 23;
    cpu_milli = 370;
  }

let native =
  {
    decaf with
    E.Xpcperf.config = E.Xpcperf.native;
    crossings = 0;
    c_java = 0;
    bytes = 0;
    posted = 0;
    delivered = 0;
    flushes = 0;
    doorbells = 0;
    ring_produced = 0;
    xpc_ns = 0;
    shard_hits = 0;
    shards_used = 0;
    init_ns = 50_027_120;
    init_crossings = 0;
    cpu_milli = 357;
  }

let sound = fleet ~scale:8 ~spread:(120, 130) @ [ decaf; native ]

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
  Alcotest.(check int) "a decaf cell alone: no native twin" 0
    (complaints [ { decaf with E.Xpcperf.init_crossings = 0 } ]);
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

(* Table 3's gates, one broken at a time in the e1000 send pair. *)
let table3 ~decaf:d ~native:n =
  complaints (fleet ~scale:8 ~spread:(120, 130) @ [ d; n ])

let test_acceptance_parity () =
  Alcotest.(check int) "decaf perf 1% under native" 1
    (table3 ~decaf:{ decaf with E.Xpcperf.perf_milli = 986_977 } ~native);
  Alcotest.(check int) "decaf perf 1% over native" 1
    (table3 ~decaf:{ decaf with E.Xpcperf.perf_milli = 1_006_917 } ~native);
  Alcotest.(check int) "decaf perf 0.9% under native" 0
    (table3 ~decaf:{ decaf with E.Xpcperf.perf_milli = 988_000 } ~native)

let test_acceptance_init_ratio () =
  Alcotest.(check int) "decaf init only 2x native" 1
    (table3 ~decaf:{ decaf with E.Xpcperf.init_ns = 100_054_240 } ~native)

let test_acceptance_init_crossings () =
  Alcotest.(check int) "decaf init crossed twice" 1
    (table3 ~decaf:{ decaf with E.Xpcperf.init_crossings = 2 } ~native);
  Alcotest.(check int) "native init crossed" 1
    (table3 ~decaf ~native:{ native with E.Xpcperf.init_crossings = 1 })

let test_acceptance_cpu () =
  Alcotest.(check int) "CPU 2 points apart" 1
    (table3 ~decaf:{ decaf with E.Xpcperf.cpu_milli = 377 } ~native);
  Alcotest.(check int) "CPU 1.9 points apart" 0
    (table3 ~decaf:{ decaf with E.Xpcperf.cpu_milli = 376 } ~native)

(* The native build is kernel code: one crossing anywhere in its run is
   one complaint, with or without its decaf twin. *)
let test_acceptance_native_xpc_free () =
  let crossed = { native with E.Xpcperf.crossings = 1 } in
  Alcotest.(check int) "a native cell with one crossing" 1
    (complaints [ crossed ]);
  Alcotest.(check int) "the same cell beside its decaf twin" 1
    (table3 ~decaf ~native:crossed);
  Alcotest.(check int) "a decaf cell that crosses" 0 (complaints [ decaf ])

(* The table sizes its Config column to the longest name it prints and
   prints a summary only over rows; the title counts the cells. *)
let test_render_filtered () =
  let out = E.Xpcperf.render (fleet ~scale:8 ~spread:(120, 130) @ [ native ]) in
  let lines = String.split_on_char '\n' out in
  let header = List.nth lines 1 in
  let crossings_end =
    let rec find i =
      if String.sub header i 9 = "Crossings" then i + 9 else find (i + 1)
    in
    find 0
  in
  Alcotest.(check string) "title counts the cells"
    "Concurrent XPC dispatch matrix (3 cells)" (List.hd lines);
  List.iteri
    (fun i line ->
      if i >= 2 && i <= 4 then
        check_bool
          (Printf.sprintf "crossings column aligned: %S" line)
          true
          (line.[crossings_end - 1] = '3' || line.[crossings_end - 1] = '0'))
    lines;
  check_bool "no summary without its two cells" false
    (Testutil.contains out "batch+delta vs off")

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
   (the serial send cell) and native (its twin). *)
type pass = {
  samples : ((string * string) * E.Xpcperf.sample) list;
  init : int;
  native_init : int;
}

let knob_duration_ns = 20_000_000

let measure_pass () =
  let sample ((scenario, config) as c) =
    (c, cell ~duration_ns:knob_duration_ns scenario config)
  in
  let samples = List.map sample cells in
  let twin =
    cell ~duration_ns:knob_duration_ns "e1000-netperf-send"
      "nobatch+full+w1+native"
  in
  {
    samples;
    init = (List.assoc send_serial samples).E.Xpcperf.init_ns;
    native_init = twin.E.Xpcperf.init_ns;
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
          Alcotest.test_case "Table 3 perf parity" `Quick
            test_acceptance_parity;
          Alcotest.test_case "Table 3 init ratio" `Quick
            test_acceptance_init_ratio;
          Alcotest.test_case "Table 3 init crossings" `Quick
            test_acceptance_init_crossings;
          Alcotest.test_case "Table 3 CPU" `Quick test_acceptance_cpu;
          Alcotest.test_case "a native cell reaches no XPC" `Quick
            test_acceptance_native_xpc_free;
          Alcotest.test_case "render fits a filtered matrix" `Quick
            test_render_filtered;
          Alcotest.test_case "every cost knob moves what it prices" `Quick
            test_knob_table;
        ] );
    ]
