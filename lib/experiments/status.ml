(* The `decafctl status` experiment: bring all five drivers up through
   the registry, run a slice of each workload (plus one suspend/resume
   cycle on the E1000, so the PM counters are live), and return the
   registry's per-driver snapshots — the same data the fault campaign
   and Table 3 observe. *)

module K = Decaf_kernel
open Decaf_drivers
open Decaf_workloads

let driver_names = Driver_set.names

let measure () =
  Scenario.boot ();
  (* the ring axis is live in status runs, so the per-binding ring
     counters (occupancy/high-water/doorbells/drops) show real traffic *)
  Decaf_xpc.Ring.set_enabled true;
  let devices = List.map Rig.plug driver_names in
  Scenario.in_thread (fun () ->
      List.iter
        (fun name ->
          Rig.ok (name ^ " insmod")
            (Driver_core.insmod name ~mode:Driver_env.Decaf))
        driver_names;
      List.iter
        (fun dev ->
          Rig.up dev;
          (* half the campaigns' audio slice *)
          if Rig.name dev = "ens1371" then Rig.slice ~duration_ns:10_000_000 dev
          else Rig.slice dev;
          if Rig.name dev = "e1000" then begin
            Rig.ok "e1000-suspend" (Driver_core.suspend "e1000");
            Rig.ok "e1000-resume" (Driver_core.resume "e1000");
            Rig.slice dev
          end)
        devices;
      let snaps = Driver_core.snapshots () in
      List.iter Driver_core.rmmod driver_names;
      snaps)

let render = Driver_core.render_status

(* One JSON object per driver, one per line — the same hand-rolled,
   dependency-free convention as the BENCH_xpc.json trajectory. *)
let render_json snaps =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun s ->
      let stat f =
        match s.Driver_core.s_supervisor with Some st -> f st | None -> 0
      in
      add
        "{\"driver\":\"%s\",\"id\":\"%s\",\"state\":\"%s\",\"mode\":\"%s\",\"crossings\":%d,\"wire_bytes\":%d,\"notifies\":%d,\"deferred_syncs\":%d,\"rejections\":%d,\"dropped\":%d,\"ring_occupancy\":%d,\"ring_high_water\":%d,\"ring_doorbells\":%d,\"ring_drops\":%d,\"detected\":%d,\"recovered\":%d,\"degraded\":%d,\"restarts_left\":%d,\"init_latency_ns\":%d}\n"
        s.Driver_core.s_driver s.Driver_core.s_binding
        (Driver_core.lifecycle_name s.Driver_core.s_state)
        (match s.Driver_core.s_mode with
        | Some m -> Driver_env.mode_name m
        | None -> "-")
        s.Driver_core.s_crossings s.Driver_core.s_wire_bytes
        s.Driver_core.s_notifies s.Driver_core.s_deferred_syncs
        s.Driver_core.s_rejections s.Driver_core.s_dropped
        s.Driver_core.s_ring_occupancy s.Driver_core.s_ring_high_water
        s.Driver_core.s_ring_doorbells s.Driver_core.s_ring_drops
        (stat (fun st -> st.Decaf_runtime.Supervisor.detected))
        (stat (fun st -> st.Decaf_runtime.Supervisor.recovered))
        (stat (fun st -> st.Decaf_runtime.Supervisor.degraded))
        s.Driver_core.s_restarts_left s.Driver_core.s_init_latency_ns)
    snaps;
  Buffer.contents buf

(* `decafctl status --latency`: the per-path percentile columns from the
   event-accounting registry, populated by the same workload slice
   [measure] just ran. The registry survives until the next boot, so
   this reads whatever the most recent measurement observed. *)
let render_latency () =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "%-14s %9s %12s %12s %12s %12s\n" "Path" "Samples" "p50(us)"
    "p99(us)" "p999(us)" "max(us)";
  List.iter
    (fun p ->
      match K.Latency.find p with
      | Some h when K.Latency.count h > 0 ->
          let us v = float_of_int v /. 1e3 in
          add "%-14s %9d %12.1f %12.1f %12.1f %12.1f\n" p
            (K.Latency.count h)
            (us (K.Latency.percentile h 0.50))
            (us (K.Latency.percentile h 0.99))
            (us (K.Latency.percentile h 0.999))
            (us (K.Latency.max_ns h))
      | _ -> ())
    (K.Latency.paths ());
  Buffer.contents buf
