module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc

type result = {
  bytes_written : int;
  elapsed_ns : int;
  cpu_utilization : float;
  files : int;
  effective_kbps : float;
  goodput_kbps : float;
}

let chunk = 4_096

(* tar's own work per chunk: read from the archive, checksum, copy. *)
let app_cost = 30_000

let untar ~model ~files ~file_bytes =
  let t0 = K.Clock.now () and busy0 = K.Clock.busy_ns () in
  let saved0 = Xpc.Dispatch.overlap_saved_ns () in
  let written0 = Hw.Uhci_hw.drive_bytes_written model in
  for _file = 1 to files do
    let remaining = ref file_bytes in
    while !remaining > 0 do
      let n = min chunk !remaining in
      K.Clock.consume app_cost;
      (match
         K.Usbcore.bulk_msg ~direction:K.Usbcore.Dir_out ~endpoint:2
           (Bytes.make n 'f')
       with
      | Ok _ -> ()
      | Error rc -> K.Panic.bug "tar: bulk write failed (%d)" rc);
      remaining := !remaining - n
    done
  done;
  let elapsed_ns = K.Clock.now () - t0 in
  (* Overlap model (see Netperf.mk): credit back the dispatch work that
     worker lanes overlap instead of re-adding time already elapsed. *)
  let saved_ns = Xpc.Dispatch.overlap_saved_ns () - saved0 in
  let bytes_written = Hw.Uhci_hw.drive_bytes_written model - written0 in
  let rate over =
    if over = 0 then 0.
    else float_of_int (bytes_written * 8) *. 1e6 /. float_of_int over
  in
  {
    bytes_written;
    elapsed_ns;
    cpu_utilization = K.Clock.utilization ~since:t0 ~busy_since:busy0;
    files;
    effective_kbps = rate elapsed_ns;
    goodput_kbps = rate (max 0 (elapsed_ns - saved_ns));
  }

let pp ppf r =
  Format.fprintf ppf "%d files, %d bytes, %.0f kb/s, %.1f%% CPU" r.files
    r.bytes_written r.effective_kbps
    (100. *. r.cpu_utilization)
