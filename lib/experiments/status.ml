(* The `decafctl status` experiment: bring all five drivers up through
   the registry, run a slice of each workload (plus one suspend/resume
   cycle on the E1000, so the PM counters are live), and return the
   registry's per-driver snapshots — the same data the fault campaign
   and Table 3 observe. *)

module K = Decaf_kernel
module Supervisor = Decaf_runtime.Supervisor
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

(* One JSON object per driver, one per line, written by Jsonl like the
   BENCH_xpc.json trajectory. *)
let render_json snaps =
  let line (s : Driver_core.snapshot) =
    let stat f =
      Jsonl.Int (match s.s_supervisor with Some st -> f st | None -> 0)
    in
    Jsonl.(
      to_string
        (Obj
           [
             ("driver", Str s.s_driver);
             ("id", Str s.s_binding);
             ("state", Str (Driver_core.lifecycle_name s.s_state));
             ( "mode",
               Str
                 (match s.s_mode with
                 | Some m -> Driver_env.mode_name m
                 | None -> "-") );
             ("crossings", Int s.s_crossings);
             ("wire_bytes", Int s.s_wire_bytes);
             ("notifies", Int s.s_notifies);
             ("deferred_syncs", Int s.s_deferred_syncs);
             ("rejections", Int s.s_rejections);
             ("dropped", Int s.s_dropped);
             ("ring_occupancy", Int s.s_ring_occupancy);
             ("ring_high_water", Int s.s_ring_high_water);
             ("ring_doorbells", Int s.s_ring_doorbells);
             ("ring_drops", Int s.s_ring_drops);
             ("detected", stat (fun st -> st.Supervisor.detected));
             ("recovered", stat (fun st -> st.Supervisor.recovered));
             ("degraded", stat (fun st -> st.Supervisor.degraded));
             ("restarts_left", Int s.s_restarts_left);
             ("init_latency_ns", Int s.s_init_latency_ns);
           ]))
    ^ "\n"
  in
  String.concat "" (List.map line snaps)

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
