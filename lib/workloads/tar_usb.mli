(** The tar workload: untar an archive onto a USB 1.1 flash drive —
    a stream of file-sized bulk writes through the HCD. *)

type result = {
  bytes_written : int;
  elapsed_ns : int;
  cpu_utilization : float;
  files : int;
  effective_kbps : float;  (** raw: drive bytes over elapsed virtual time *)
  goodput_kbps : float;
      (** cost-adjusted: drive bytes over elapsed time minus the
          dispatch work worker lanes overlap
          ({!Decaf_xpc.Dispatch.overlap_saved_ns} delta) *)
}

val untar :
  model:Decaf_hw.Uhci_hw.t ->
  files:int ->
  file_bytes:int ->
  result
(** Write [files] files of [file_bytes] each over bulk URBs, syncing
    after each file. *)

val pp : Format.formatter -> result -> unit
