module K = Decaf_kernel
open Decaf_drivers
open Decaf_workloads

type measurement = {
  perf : float;
  cpu : float;
  init_ns : int;
  init_crossings : int;
}

type row = {
  driver : string;
  workload : string;
  perf_unit : string;
  native : measurement;
  decaf : measurement;
}

let relative_performance row =
  if row.native.perf = 0. then 1. else row.decaf.perf /. row.native.perf

(* Each workload returns its figure of merit and CPU utilization. *)
let workload name dev ~duration_ns =
  match name with
  | "netperf-send" | "netperf-recv" | "netperf-udp-1B" ->
      (* the paper's UDP test sends 1-byte messages *)
      let msg_bytes = if name = "netperf-udp-1B" then 1 else 1500 in
      let recv = name = "netperf-recv" in
      let r = Rig.netperf ~recv ~msg_bytes dev ~duration_ns in
      (r.Netperf.throughput_mbps, r.Netperf.cpu_utilization)
  | "mpg123" ->
      let r = Rig.play dev ~duration_ns in
      (* figure of merit: realtime playback with no mid-stream underrun
         (the final partial period is inherent) *)
      ((if r.Mpg123.underruns <= 1 then 1.0 else 0.0), r.Mpg123.cpu_utilization)
  | "tar" ->
      (* size the archive to roughly fill the duration at USB 1.1 speed *)
      let total_bytes = 1_200 * (duration_ns / 1_000_000) in
      let files = max 1 (total_bytes / 65_536) in
      let r = Rig.untar ~files ~file_bytes:65_536 dev in
      (r.Tar_usb.effective_kbps, r.Tar_usb.cpu_utilization)
  | "move-and-click" ->
      let r = Rig.move dev ~duration_ns in
      (float_of_int r.Mouse_move.packets, r.Mouse_move.cpu_utilization)
  | _ -> invalid_arg ("Table3: no workload " ^ name)

(* One cell: boot, plug, load the [mode] build, bring a NIC up, run the
   workload, unload. Init latency is the probe plus the bring-up. *)
let cell driver name ~duration_ns mode =
  Scenario.boot ();
  let dev = Rig.plug driver in
  Scenario.in_thread (fun () ->
      Rig.ok (driver ^ " insmod") (Driver_core.insmod driver ~mode);
      let t_open0 = K.Clock.now () in
      Rig.up dev;
      let init_ns =
        (Driver_core.snapshot driver).Driver_core.s_init_latency_ns
        + (K.Clock.now () - t_open0)
      in
      let init_crossings = Scenario.kernel_user_crossings () in
      let perf, cpu = workload name dev ~duration_ns in
      Driver_core.rmmod driver;
      { perf; cpu; init_ns; init_crossings })

let measure ?(duration_ns = 2_000_000_000) () =
  let mk driver workload perf_unit ?(duration_ns = duration_ns) () =
    let cell = cell driver workload ~duration_ns in
    let native, decaf = (cell Driver_env.Native, cell Driver_env.Decaf) in
    let driver = if driver = "e1000" then "E1000" else driver in
    { driver; workload; perf_unit; native; decaf }
  in
  [
    mk "8139too" "netperf-send" "Mb/s" ();
    mk "8139too" "netperf-recv" "Mb/s" ();
    mk "e1000" "netperf-send" "Mb/s" ();
    mk "e1000" "netperf-recv" "Mb/s" ();
    mk "e1000" "netperf-udp-1B" "Mb/s" ();
    mk "ens1371" "mpg123" "ok" ();
    mk "uhci-hcd" "tar" "kb/s" ();
    mk "psmouse" "move-and-click" "packets"
      ~duration_ns:(max duration_ns 10_000_000_000) ();
  ]

let render rows =
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Table 3: performance of Decaf Drivers on common workloads\n";
  add "%-9s %-15s %8s | %6s %6s | %9s %9s | %9s\n" "Driver" "Workload" "RelPerf"
    "CPUn%" "CPUd%" "Init-nat" "Init-dec" "Crossings";
  List.iter
    (fun row ->
      add "%-9s %-15s %8.3f | %6.1f %6.1f | %7.2fms %7.2fms | %9d\n" row.driver
        row.workload
        (relative_performance row)
        (100. *. row.native.cpu) (100. *. row.decaf.cpu)
        (float_of_int row.native.init_ns /. 1e6)
        (float_of_int row.decaf.init_ns /. 1e6)
        row.decaf.init_crossings)
    rows;
  Buffer.contents buf
