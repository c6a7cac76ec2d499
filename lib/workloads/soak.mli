(** The mixed-traffic soak: all five drivers at once in one booted
    machine — an e1000 fleet streaming bursty heavy-tailed flows
    through the virtual switch, 8139too netperf bursts, continuous
    ens1371 playback, UHCI tar loops and psmouse event storms — with
    the per-path latency registry ({!Decaf_kernel.Latency}) as the
    figure of merit.

    Two phases run back to back: ["steady"] (fault-free; the audio
    deadline gate applies here) and ["churn"] (the same traffic under
    link-flap and spurious-interrupt fault plans, hotplug storms on the
    fleet ports and the mouse, and suspend/resume cycles on the e1000
    and the HCD). The run ends at quiescence with every binding
    unloaded and the object-tracker and kmalloc ledgers compared to the
    post-boot baseline. *)

type path_stats = {
  path : string;  (** registry path, e.g. ["irq"], ["xpc.dispatch"] *)
  samples : int;
  overflow : int;  (** samples beyond the histogram's last bucket *)
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

type phase = {
  phase_name : string;  (** ["steady"] or ["churn"] *)
  phase_ns : int;
  paths : path_stats list;  (** every path with at least one sample *)
  audio_periods : int;
  audio_misses : int;
      (** period deadlines missed (hardware underruns), excluding the
          one deliberately partial period where the phase's playback
          ends; the steady phase gates on this being zero *)
  packets : int;  (** frames on the wire: fleet plus 8139too *)
  input_events : int;
  usb_bytes : int;
}

type result = {
  steady : phase;
  churn : phase;
  leaked_tracker_entries : int;
      (** object-tracker associations and capability handles above
          the post-boot baseline at quiescence — must be zero *)
  leaked_kmalloc_blocks : int;
  leaked_kmalloc_bytes : int;  (** kmalloc bytes still outstanding *)
}

val run : ?fleet:int -> ?seed:int -> ?phase_ns:int -> unit -> result
(** Run both phases over [fleet] e1000 instances (default 3, minimum 2)
    plus the other four drivers, [phase_ns] virtual ns per phase. The
    schedule is a deterministic function of [seed]. The caller must
    have booted the machine and applied an XPC configuration, and must
    not call this from inside a scheduler thread. *)
