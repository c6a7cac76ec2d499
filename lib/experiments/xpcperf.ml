module K = Decaf_kernel
module Xpc = Decaf_xpc
open Decaf_drivers
open Decaf_workloads

type config = {
  batching : bool;
  delta : bool;
  workers : int;
  guard : bool;
  ring : bool;
  instances : int;
}

let config_name c =
  (if c.batching then "batch" else "nobatch")
  ^ "+"
  ^ (if c.delta then "delta" else "full")
  ^ Printf.sprintf "+w%d" c.workers
  ^ (if c.guard then "" else "+noguard")
  ^ (if c.ring then "+ring" else "")
  ^ if c.instances > 1 then Printf.sprintf "+i%d" c.instances else ""

(* Measured in a fixed order so the JSON trajectory is stable: the four
   historical optimization combinations on the serial (one-worker) path,
   then the worker axis — the best serial config at 2 and 4 workers,
   plus the unoptimized baseline at 4 to separate the two effects — and
   finally the guard axis: the best serial and parallel configs with
   per-field boundary validation switched off. The checks run on the
   kernel side of each reply, off every worker lane, so the axis prices
   them in [xpc_ns] (the off-lane account) while perf stays wire-bound.
   Guard on is the product configuration, so every other point keeps it
   enabled. *)
(* The unoptimized serial point, and batch+delta at [workers]. *)
let serial =
  {
    batching = false;
    delta = false;
    workers = 1;
    guard = true;
    ring = false;
    instances = 1;
  }

let bd ?(guard = true) ?(ring = false) workers =
  { serial with batching = true; delta = true; workers; guard; ring }

let configs =
  [
    serial;
    { serial with batching = true };
    { serial with delta = true };
    bd 1;
    bd 2;
    { serial with workers = 4 };
    bd 4;
    bd ~guard:false 1;
    bd ~guard:false 4;
    (* the ring axis rides on top of the best serial and parallel
       configs: slot records replace the hot deferred notifications,
       the doorbell amortizes their crossings to ~zero *)
    bd ~ring:true 1;
    bd ~ring:true 4;
  ]

(* The fleet axis rides on the best parallel configuration (batch +
   delta + 4 workers + ring, guard on): the point of the sweep is how
   the shared worker pools, the sharded tracker and the per-instance
   rings behave as the instance count grows, not to re-run the whole
   optimization matrix per fleet size. The single-instance cell is the
   scaling baseline, measured through the same virtual switch. *)
let fleet_instance_counts = [ 1; 16; 64; 256 ]

let fleet_configs =
  List.map
    (fun n -> { (bd ~ring:true 4) with instances = n })
    fleet_instance_counts

type sample = {
  scenario : string;
  config : config;
  crossings : int;
  c_java : int;
  bytes : int;
  posted : int;
  delivered : int;
  flushes : int;
  doorbells : int;
  ring_produced : int;
  ring_drops : int;
  xpc_ns : int;
  lock_contended : int;
  lock_wait_ns : int;
  shard_hits : int;
  shards_used : int;
  perf_milli : int;
  perf_unit : string;
  fair_min_milli : int;
  fair_mean_milli : int;
  fair_max_milli : int;
}

let perf s = float_of_int s.perf_milli /. 1000.

(* Every scenario runs the decaf build: the whole point is the cost of
   the user-level half, and the native build has no crossings to batch. *)
let apply_config c =
  Xpc.Batch.set_enabled c.batching;
  Xpc.Marshal_plan.set_delta_enabled c.delta;
  Xpc.Dispatch.set_workers c.workers;
  Xpc.Guard.set_enabled c.guard;
  Xpc.Ring.set_enabled c.ring

let milli v = int_of_float ((v *. 1000.) +. 0.5)

let finish ?(fairness = (0., 0., 0.)) ~scenario ~config ~perf ~perf_unit () =
  let ch = Xpc.Channel.snapshot () in
  let b = Xpc.Batch.snapshot () in
  let r = Xpc.Ring.snapshot () in
  let shards = Xpc.Channel.tracker_shards () in
  let shard_hits =
    Array.fold_left (fun acc s -> acc + s.Xpc.Objtracker.hits) 0 shards
  in
  let shards_used =
    Array.fold_left
      (fun acc s -> if s.Xpc.Objtracker.lookups > 0 then acc + 1 else acc)
      0 shards
  in
  {
    scenario;
    config;
    crossings = ch.Xpc.Channel.kernel_user_calls;
    c_java = ch.Xpc.Channel.c_java_calls;
    bytes = ch.Xpc.Channel.bytes_marshaled;
    posted = b.Xpc.Batch.posted;
    delivered = b.Xpc.Batch.delivered;
    flushes = b.Xpc.Batch.flush_crossings;
    doorbells = r.Xpc.Ring.doorbells;
    ring_produced = r.Xpc.Ring.produced;
    ring_drops = r.Xpc.Ring.overflow + r.Xpc.Ring.discarded;
    xpc_ns = Xpc.Dispatch.overhead_ns ();
    lock_contended = ch.Xpc.Channel.lock_contended;
    lock_wait_ns = ch.Xpc.Channel.lock_wait_ns;
    shard_hits;
    shards_used;
    perf_milli = int_of_float ((perf *. 1000.) +. 0.5);
    perf_unit;
    fair_min_milli = (let mn, _, _ = fairness in milli mn);
    fair_mean_milli = (let _, me, _ = fairness in milli me);
    fair_max_milli = (let _, _, mx = fairness in milli mx);
  }

(* One single-instance cell: boot, apply [config], plug the driver's
   device, load the decaf build, bring a NIC up, run the workload, drain
   the batch queues and unload. *)
let cell driver ~scenario ~perf_unit workload config ~duration_ns =
  Scenario.boot ();
  apply_config config;
  let dev = Rig.plug driver in
  Scenario.in_thread (fun () ->
      Rig.ok (driver ^ " insmod")
        (Driver_core.insmod driver ~mode:Driver_env.Decaf);
      Rig.up dev;
      let perf = workload dev ~duration_ns in
      Xpc.Batch.drain ();
      Driver_core.rmmod driver;
      finish ~scenario ~config ~perf ~perf_unit ())

let goodput ~recv dev ~duration_ns =
  (Rig.netperf ~recv dev ~duration_ns).Netperf.goodput_mbps

let e1000_net which =
  let scenario =
    match which with
    | `Send -> "e1000-netperf-send"
    | `Recv -> "e1000-netperf-recv"
  in
  cell "e1000" ~scenario ~perf_unit:"Mb/s" (goodput ~recv:(which = `Recv))

(* --- the fleet scenario: N e1000 instances under one virtual switch --- *)

let e1000_fleet config ~duration_ns =
  Scenario.boot ();
  apply_config config;
  let links =
    List.init config.instances (fun port -> Rig.plug_e1000 ~port ())
  in
  Scenario.in_thread (fun () ->
      (* one registry binding per device, all through the same module:
         instance 0 keeps the bare name, the rest are "e1000#k" *)
      let ids =
        List.mapi
          (fun i _ ->
            Rig.ok "e1000 fleet bind"
              (Driver_core.bind_device "e1000" ~dev:(Rig.port_slot i)
                 ~mode:Driver_env.Decaf ()))
          links
      in
      let ports =
        List.mapi
          (fun i link ->
            let netdev =
              Option.get (E1000_drv.netdev_at ~slot:(Rig.port_slot i))
            in
            Rig.ok "e1000 fleet open" (K.Netcore.open_dev netdev);
            { Vswitch.netdev; link })
          links
      in
      let r = Vswitch.run ~ports ~duration_ns ~msg_bytes:1500 in
      Xpc.Batch.drain ();
      List.iter Driver_core.rmmod ids;
      finish ~scenario:"e1000-fleet" ~config
        ~fairness:(r.Vswitch.min_mbps, r.Vswitch.mean_mbps, r.Vswitch.max_mbps)
        ~perf:r.Vswitch.aggregate_mbps ~perf_unit:"Mb/s" ())

let default_duration_ns = 300_000_000

(* Each scenario carries the configurations it is measured under: the
   single-instance scenarios sweep the full optimization matrix, the
   fleet scenario sweeps the instance axis on the best parallel point. *)
(* psmouse and ens1371 cross no tracked structure, validated field or
   ring, so their delta, guard and ring points repeat a sibling field
   for field: they measure the batching and worker axes alone, and
   ens1371, whose upcalls never fill more than two lanes, drops its
   two-worker point too. Of each repeated group the kept cell is the one
   [render] compares. *)
let plain c = c.batching = c.delta && c.guard && not c.ring
let psmouse_configs = List.filter plain configs
let ens1371_configs = List.filter (fun c -> plain c && c.workers <> 2) configs

let scenarios ~duration_ns =
  let single driver scenario perf_unit ?(duration_ns = duration_ns)
      ?(cfgs = configs) workload =
    ( scenario,
      cfgs,
      fun cfg -> cell driver ~scenario ~perf_unit workload cfg ~duration_ns )
  in
  [
    ("e1000-netperf-send", configs, fun cfg -> e1000_net `Send cfg ~duration_ns);
    ("e1000-netperf-recv", configs, fun cfg -> e1000_net `Recv cfg ~duration_ns);
    single "8139too" "8139too-netperf-send" "Mb/s" (goodput ~recv:false);
    single "psmouse" "psmouse-move" "ev/s"
      ~duration_ns:(max duration_ns 2_000_000_000)
      ~cfgs:psmouse_configs
      (fun dev ~duration_ns ->
        (Rig.move dev ~duration_ns).Mouse_move.event_rate_hz);
    (* realtime factor of playback with no mid-stream underrun *)
    single "ens1371" "ens1371-mpg123" "rt" ~cfgs:ens1371_configs
      (fun dev ~duration_ns ->
        let r = Rig.play dev ~duration_ns in
        if r.Mpg123.underruns <= 1 then r.Mpg123.realtime_factor else 0.0);
    ("e1000-fleet", fleet_configs, fun cfg -> e1000_fleet cfg ~duration_ns);
  ]

let scenario_names =
  List.map (fun (n, _, _) -> n) (scenarios ~duration_ns:default_duration_ns)

let config_names () =
  List.sort_uniq compare (List.map config_name (configs @ fleet_configs))

(* [scenario]/[config] narrow the matrix to one row/column (by the
   names the table and trajectory print), so a single cell can be
   re-measured locally without the full sweep. *)
let measure ?(duration_ns = default_duration_ns) ?scenario ?config () =
  let scenes =
    List.filter
      (fun (name, _, _) ->
        match scenario with None -> true | Some s -> s = name)
      (scenarios ~duration_ns)
  in
  List.concat_map
    (fun (_, cfgs, run) ->
      List.map run
        (List.filter
           (fun c ->
             match config with None -> true | Some n -> n = config_name c)
           cfgs))
    scenes

(* --- reporting --- *)

let find samples ~scenario ~config =
  List.find_opt (fun s -> s.scenario = scenario && s.config = config) samples

let reduction ~off ~on =
  if off = 0 then 0.
  else 100. *. float_of_int (off - on) /. float_of_int off

let render samples =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Concurrent XPC dispatch matrix (decaf build, %d configs)\n"
    (List.length configs);
  add "%-20s %-17s %9s %8s %10s %7s %7s %7s %10s %6s %6s %10s\n" "Scenario"
    "Config" "Crossings" "C/Java" "Bytes" "Posted" "Deliv" "Flushes" "XpcUs"
    "LockC" "Shards" "Perf";
  List.iter
    (fun s ->
      add "%-20s %-17s %9d %8d %10d %7d %7d %7d %10d %6d %6d %7.2f %s\n"
        s.scenario (config_name s.config) s.crossings s.c_java s.bytes
        s.posted s.delivered s.flushes (s.xpc_ns / 1_000) s.lock_contended
        s.shards_used (perf s) s.perf_unit)
    samples;
  let names =
    List.filter_map
      (fun s -> if s.config = serial then Some s.scenario else None)
      samples
  in
  (* One summary: a row per scenario that measured both [a] and [b]. *)
  let versus title columns a b row =
    add "\n%-20s %s\n" title columns;
    List.iter
      (fun scenario ->
        match
          (find samples ~scenario ~config:a, find samples ~scenario ~config:b)
        with
        | Some x, Some y -> row scenario x y
        | _ -> ())
      names
  in
  let ratio x y = if perf x = 0. then 1. else perf y /. perf x in
  versus "batch+delta vs off" "   crossings        bytes       perf" serial
    (bd 1) (fun scenario off on ->
      add "%-20s %11.1f%% %11.1f%% %9.3fx\n" scenario
        (reduction ~off:off.crossings ~on:on.crossings)
        (reduction ~off:off.bytes ~on:on.bytes)
        (ratio off on));
  versus "w4 vs w1 (b+d)" "      xpc_ns    contended       perf" (bd 1)
    (bd 4) (fun scenario w1 w4 ->
      add "%-20s %11.1f%% %12d %9.3fx\n" scenario
        (reduction ~off:w1.xpc_ns ~on:w4.xpc_ns)
        w4.lock_contended (ratio w1 w4));
  (* the price of boundary validation at the best config, serial and
     parallel: the checks' XPC time, while perf stays wire-bound *)
  List.iter
    (fun w ->
      versus
        (Printf.sprintf "guard on vs off (w%d)" w)
        "     +xpc_ns       perf" (bd ~guard:false w) (bd w)
        (fun scenario off on ->
          add "%-20s %12d %9.3fx\n" scenario (on.xpc_ns - off.xpc_ns)
            (ratio off on)))
    [ 1; 4 ];
  (* the ring axis: data-path crossings collapse from one flush per
     batch to one doorbell per ring fill, throughput must hold *)
  versus "ring vs batch+delta" " flush->bell    crossings       perf" (bd 1)
    (bd ~ring:true 1) (fun scenario bd rg ->
      add "%-20s %6d->%-5d %11.1f%% %9.3fx\n" scenario bd.flushes
        rg.doorbells
        (reduction ~off:bd.crossings ~on:rg.crossings)
        (ratio bd rg));
  (* the fleet axis: aggregate goodput and fairness as the instance
     count grows on a fixed worker pool *)
  let fleet =
    List.filter (fun s -> s.scenario = "e1000-fleet") samples
  in
  if fleet <> [] then begin
    add "\n%-20s %12s %10s %10s %10s %8s\n" "fleet (e1000)" "aggregate"
      "min" "mean" "max" "spread";
    List.iter
      (fun s ->
        let m v = float_of_int v /. 1000. in
        let spread =
          if s.fair_min_milli = 0 then 0.
          else m s.fair_max_milli /. m s.fair_min_milli
        in
        add "%-20s %9.1f %s %10.1f %10.1f %10.1f %7.2fx\n"
          (Printf.sprintf "i=%d" s.config.instances)
          (perf s) s.perf_unit
          (m s.fair_min_milli) (m s.fair_mean_milli) (m s.fair_max_milli)
          spread)
      fleet
  end;
  Buffer.contents buf

(* --- JSON trajectory: one object per line, printed by Jsonl; dune
   diffs it against the committed file --- *)

let json_line s =
  let open Jsonl in
  let flag b = Int (if b then 1 else 0) in
  to_string
    (Obj
       [
         ("scenario", Str s.scenario);
         ("batching", flag s.config.batching);
         ("delta", flag s.config.delta);
         ("workers", Int s.config.workers);
         ("guard", flag s.config.guard);
         ("ring", flag s.config.ring);
         ("instances", Int s.config.instances);
         ("crossings", Int s.crossings);
         ("c_java", Int s.c_java);
         ("bytes", Int s.bytes);
         ("posted", Int s.posted);
         ("delivered", Int s.delivered);
         ("flushes", Int s.flushes);
         ("doorbells", Int s.doorbells);
         ("ring_produced", Int s.ring_produced);
         ("ring_drops", Int s.ring_drops);
         ("xpc_ns", Int s.xpc_ns);
         ("lock_contended", Int s.lock_contended);
         ("lock_wait_ns", Int s.lock_wait_ns);
         ("shard_hits", Int s.shard_hits);
         ("shards_used", Int s.shards_used);
         ("perf_milli", Int s.perf_milli);
         ("perf_unit", Str s.perf_unit);
         ("fair_min_milli", Int s.fair_min_milli);
         ("fair_mean_milli", Int s.fair_mean_milli);
         ("fair_max_milli", Int s.fair_max_milli);
       ])

let to_json ~duration_ns samples =
  let header =
    Jsonl.(
      to_string
        (Obj [ ("bench", Str "xpc"); ("duration_ns", Int duration_ns) ]))
  in
  String.concat "\n" (header :: List.map json_line samples) ^ "\n"

(* --- acceptance: the gates that are not a comparison with the
   committed file, which dune diffs byte for byte --- *)

let acceptance samples =
  let complaints = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> complaints := m :: !complaints) fmt
  in
  (* the fleet keeps scaling on the shared worker pool (the 64-instance
     aggregate at least 8x the single instance through the same virtual
     switch) and stays fair (max/min at most 2x across instances) *)
  let fleet n =
    List.find_opt
      (fun s -> s.scenario = "e1000-fleet" && s.config.instances = n)
      samples
  in
  (match (fleet 1, fleet 64) with
  | Some one, Some many when many.perf_milli < 8 * one.perf_milli ->
      complain "e1000-fleet: i64 aggregate %d is < 8x the i1 %d milliMb/s"
        many.perf_milli one.perf_milli
  | _ -> ());
  List.iter
    (fun s ->
      if s.scenario = "e1000-fleet"
         && s.fair_max_milli > 2 * s.fair_min_milli
      then
        complain "e1000-fleet i%d: fairness spread %d/%d > 2x"
          s.config.instances s.fair_max_milli s.fair_min_milli)
    samples;
  (* a cell that repeats a sibling of its scenario in every measured
     field prices nothing: its axis does not reach that scenario *)
  let measured s = { s with config = serial } in
  let rec twins = function
    | [] -> ()
    | s :: rest ->
        List.iter
          (fun t ->
            if t.scenario = s.scenario && measured t = measured s then
              complain "%s: %s = %s" s.scenario (config_name s.config)
                (config_name t.config))
          rest;
        twins rest
  in
  twins samples;
  List.rev !complaints
