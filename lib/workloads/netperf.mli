(** The netperf workload: bulk TCP-style send and receive streams over a
    simulated NIC, reporting throughput and CPU utilization as the
    paper's Table 3 does. *)

type result = {
  throughput_mbps : float;  (** raw: wire bytes over elapsed virtual time *)
  goodput_mbps : float;
      (** cost-adjusted: wire bytes over elapsed time {e minus} the XPC
          work an N-worker runtime overlaps
          ({!Decaf_xpc.Dispatch.overlap_saved_ns} delta — total lane time
          beyond the critical path). Elapsed time already contains every
          dispatch charge fully serialized, so the serial (one-worker)
          goodput equals raw throughput and worker count moves this
          metric without double-counting the dispatch work. *)
  cpu_utilization : float;
  elapsed_ns : int;
  packets : int;
}

val send :
  netdev:Decaf_kernel.Netcore.t ->
  link:Decaf_hw.Link.t ->
  duration_ns:int ->
  msg_bytes:int ->
  result
(** Stream messages out as fast as the device accepts them, for the
    given virtual duration. Runs in the calling thread. *)

val recv :
  netdev:Decaf_kernel.Netcore.t ->
  link:Decaf_hw.Link.t ->
  duration_ns:int ->
  msg_bytes:int ->
  result
(** Have the link peer saturate the receive path; counts packets the
    stack delivers. *)

val pp : Format.formatter -> result -> unit
