(* Table 3's rows in the paper's order: the driver and workload it
   prints, and the matrix scenario that measures them. *)
let rows =
  [
    ("8139too", "netperf-send", "8139too-netperf-send");
    ("8139too", "netperf-recv", "8139too-netperf-recv");
    ("E1000", "netperf-send", "e1000-netperf-send");
    ("E1000", "netperf-recv", "e1000-netperf-recv");
    ("E1000", "netperf-udp-1B", "e1000-netperf-udp-1B");
    ("ens1371", "mpg123", "ens1371-mpg123");
    ("uhci-hcd", "tar", "uhci-hcd-tar");
    ("psmouse", "move-and-click", "psmouse-move");
  ]

let render samples =
  let pairs = Xpcperf.native_twins samples in
  let buf = Buffer.create 2048 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let ms ns = float_of_int ns /. 1e6 and pct m = float_of_int m /. 10. in
  add "Table 3: performance of Decaf Drivers on common workloads\n";
  add "%-9s %-15s %8s | %6s %6s | %9s %9s | %9s\n" "Driver" "Workload" "RelPerf"
    "CPUn%" "CPUd%" "Init-nat" "Init-dec" "Crossings";
  List.iter
    (fun (driver, workload, scenario) ->
      match
        List.find_opt (fun (d, _) -> d.Xpcperf.scenario = scenario) pairs
      with
      | Some (d, n) ->
          add "%-9s %-15s %8.3f | %6.1f %6.1f | %7.2fms %7.2fms | %9d\n"
            driver workload (Xpcperf.ratio n d) (pct n.cpu_milli)
            (pct d.cpu_milli) (ms n.init_ns) (ms d.init_ns) d.init_crossings
      | None -> ())
    rows;
  Buffer.contents buf
