(* Integration tests: each driver loads, moves data, and unloads in both
   native and decaf modes. *)

open Decaf_drivers
module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc
module Scenario = Decaf_experiments.Scenario

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let mac = "\x00\x1b\x21\x0a\x0b\x0c"

let bind = Testutil.bind

let init_latency_ns name =
  (Driver_core.snapshot name).Driver_core.s_init_latency_ns

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"test-main" (fun () -> result := Some (f ())));
  K.Sched.run ();
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "test thread did not finish"

(* Words one whole 1500-byte frame allocates on a bound, open netdev:
   dev_queue_xmit of a reused skb, then [wire_ns] of clock for the wire
   completion, the transmit interrupt and the descriptor reclaim. The
   clock runs on from the sending thread, so no scheduler switch is
   counted. Each frame starts from an idle machine and the median of 64
   is returned. *)
let median_frame_words ~link ~irq ~wire_ns nd =
  let skb = K.Netcore.Skb.alloc 1500 in
  let frames = 64 in
  let words = Array.make frames 0 in
  for i = 0 to frames - 1 do
    K.Sched.sleep_ns 1_000_000;
    let irqs = K.Irq.delivered irq and sent = Hw.Link.tx_frames link in
    let w0 = Gc.minor_words () in
    if K.Netcore.dev_queue_xmit nd skb <> K.Netcore.Xmit_ok then
      Alcotest.fail "send refused";
    K.Clock.consume wire_ns;
    let w1 = Gc.minor_words () in
    check "the frame left the wire" (sent + 1) (Hw.Link.tx_frames link);
    check_bool "its transmit interrupt ran" true (K.Irq.delivered irq > irqs);
    words.(i) <- int_of_float (w1 -. w0)
  done;
  Array.sort compare words;
  words.(frames / 2)

(* --- rtl8139 --- *)

let rtl8139_roundtrip mode () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  let _model =
    Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ()
  in
  let received = ref 0 in
  in_thread (fun () ->
      let t = bind "8139too" mode Rtl8139_drv.active in
      let nd = Rtl8139_drv.netdev t in
      K.Netcore.set_rx_handler nd (fun skb -> received := !received + skb.K.Netcore.Skb.len);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      (* transmit ten frames, retrying while the ring is full *)
      let rec send_one () =
        match K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 600) with
        | K.Netcore.Xmit_ok -> ()
        | K.Netcore.Xmit_busy ->
            K.Sched.sleep_ns 100_000;
            send_one ()
      in
      for _ = 1 to 10 do
        send_one ()
      done;
      K.Sched.sleep_ns 2_000_000;
      (* receive five frames *)
      for _ = 1 to 5 do
        Hw.Link.inject link (Bytes.make 400 'r')
      done;
      K.Sched.sleep_ns 2_000_000;
      check "frames on the wire" 10 (Hw.Link.tx_frames link);
      check "bytes received by the stack" 2000 !received;
      check "stack rx counter" 5 (K.Netcore.stats nd).K.Netcore.rx_packets;
      Driver_core.rmmod "8139too");
  check_bool "interrupts were delivered" true (K.Irq.delivered 10 > 0);
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_rtl8139_decaf_crossings () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
  in_thread (fun () ->
      let t = bind "8139too" Driver_env.Decaf Rtl8139_drv.active in
      let nd = Rtl8139_drv.netdev t in
      (match K.Netcore.open_dev nd with Ok () -> () | Error _ -> ());
      let init_crossings = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check_bool "init crossed the boundary" true (init_crossings >= 4);
      (* steady state: data path must not cross at all *)
      let before = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      for _ = 1 to 20 do
        ignore (K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 500))
      done;
      K.Sched.sleep_ns 2_000_000;
      let after = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check "no crossings on the data path" before after;
      Driver_core.rmmod "8139too")

(* Allocation regression on one whole frame on a bound decaf 8139too
   ([median_frame_words]: the send, the wire completion, the TOK
   interrupt and the reclaim). *)
let test_rtl8139_frame_alloc () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
  in_thread (fun () ->
      let t = bind "8139too" Driver_env.Decaf Rtl8139_drv.active in
      let nd = Rtl8139_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      (* 121.6 us on the wire at 100 Mb/s, then the interrupt *)
      let median = median_frame_words ~link ~irq:10 ~wire_ns:200_000 nd in
      check_bool
        (Printf.sprintf "median frame: %d words <= 0" median)
        true (median <= 0);
      Driver_core.rmmod "8139too")

let test_rtl8139_decaf_init_slower () =
  let init_latency mode =
    Scenario.boot ();
    let link = Hw.Link.create ~rate_bps:100_000_000 () in
    ignore
      (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
    in_thread (fun () ->
        ignore (bind "8139too" mode Rtl8139_drv.active);
        let l = init_latency_ns "8139too" in
        Driver_core.rmmod "8139too";
        l)
  in
  let native = init_latency Driver_env.Native in
  let decaf = init_latency Driver_env.Decaf in
  check_bool "decaf init at least 5x slower" true (decaf > 5 * native)

(* --- e1000 --- *)

let setup_e1000 () =
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  let model =
    E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11 ~mac
      ~link ()
  in
  (link, model)

let insmod_e1000 mode = bind "e1000" mode E1000_drv.active

let e1000_roundtrip mode () =
  Scenario.boot ();
  let link, _ = setup_e1000 () in
  let received = ref 0 in
  in_thread (fun () ->
      let t = insmod_e1000 mode in
      let nd = E1000_drv.netdev t in
      K.Netcore.set_rx_handler nd (fun skb -> received := !received + skb.K.Netcore.Skb.len);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let rec send_one () =
        match K.Netcore.dev_queue_xmit nd (K.Netcore.Skb.alloc 1500) with
        | K.Netcore.Xmit_ok -> ()
        | K.Netcore.Xmit_busy ->
            K.Sched.sleep_ns 100_000;
            send_one ()
      in
      for _ = 1 to 50 do
        send_one ()
      done;
      K.Sched.sleep_ns 2_000_000;
      for _ = 1 to 10 do
        Hw.Link.inject link (Bytes.make 1500 'r')
      done;
      K.Sched.sleep_ns 5_000_000;
      check "tx frames" 50 (Hw.Link.tx_frames link);
      check "rx bytes" 15_000 !received;
      Driver_core.rmmod "e1000");
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

(* Allocation regression on the transmit path: one 1500-byte
   dev_queue_xmit on a bound decaf e1000, not counting the skb itself.
   The device model reads the frame out of the skb's own buffer, so the
   frame is never copied, and stages it in a ring it keeps, so a send
   allocates nothing. Each send starts from an idle machine (the
   previous frame is on the wire and reclaimed) and is measured alone;
   the median send is gated, so a timer that happens to fall inside one
   send cannot decide the result. *)
let test_e1000_xmit_alloc () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let sends = 64 in
      let skbs = Array.init sends (fun _ -> K.Netcore.Skb.alloc 1500) in
      let words = Array.make sends 0 in
      Array.iteri
        (fun i skb ->
          K.Sched.sleep_ns 1_000_000;
          let w0 = Gc.minor_words () in
          let r = K.Netcore.dev_queue_xmit nd skb in
          let w1 = Gc.minor_words () in
          if r <> K.Netcore.Xmit_ok then Alcotest.fail "send refused";
          words.(i) <- int_of_float (w1 -. w0))
        skbs;
      Array.sort compare words;
      let median = words.(sends / 2) in
      check_bool
        (Printf.sprintf "median send: %d words <= 0" median)
        true (median <= 0);
      Driver_core.rmmod "e1000")

(* Allocation regression on one whole frame on a bound decaf e1000
   ([median_frame_words]: the send, the wire completion, the TXDW
   interrupt and the reclaim): nothing is allocated, the model and the
   link keeping the frame in their rings and each callback built
   once. *)
let test_e1000_frame_alloc () =
  Scenario.boot ();
  let link, _ = setup_e1000 () in
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      (* 12.2 us on the wire at 1 Gb/s, then the interrupt *)
      let median = median_frame_words ~link ~irq:11 ~wire_ns:50_000 nd in
      check_bool
        (Printf.sprintf "median frame: %d words <= 0" median)
        true (median <= 0);
      Driver_core.rmmod "e1000")

(* Allocation regression on the receive path: a 1500-byte frame the
   peer injects, through the wire, the RXT0 interrupt, the receive ring
   and [netif_rx] to the stack's handler on a bound decaf e1000. The skb
   the driver wraps the frame in is not counted: its words are measured
   alone and subtracted. Each frame arrives at an idle machine and the
   median is gated. *)
let test_e1000_rx_alloc () =
  Scenario.boot ();
  let link, _ = setup_e1000 () in
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      let received = ref 0 in
      K.Netcore.set_rx_handler nd (fun _ -> incr received);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let frame = Bytes.make 1500 'r' in
      let w0 = Gc.minor_words () in
      ignore (Sys.opaque_identity (K.Netcore.Skb.of_bytes frame));
      let skb_words = int_of_float (Gc.minor_words () -. w0) in
      let frames = 64 in
      let words = Array.make frames 0 in
      for i = 0 to frames - 1 do
        K.Sched.sleep_ns 1_000_000;
        let got = !received in
        let w0 = Gc.minor_words () in
        Hw.Link.inject link frame;
        (* 12.2 us on the wire at 1 Gb/s, then the interrupt *)
        K.Clock.consume 50_000;
        let w1 = Gc.minor_words () in
        check "the stack got the frame" (got + 1) !received;
        words.(i) <- int_of_float (w1 -. w0) - skb_words
      done;
      Array.sort compare words;
      let median = words.(frames / 2) in
      check_bool
        (Printf.sprintf "median received frame: %d words <= 0" median)
        true (median <= 0);
      Driver_core.rmmod "e1000")

let test_e1000_watchdog_runs_in_decaf () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let nd = E1000_drv.netdev t in
      (match K.Netcore.open_dev nd with Ok () -> () | Error rc -> Alcotest.failf "open: %d" rc);
      let crossings_before = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      (* run 7 virtual seconds: the 2-second watchdog should fire ~3x *)
      K.Sched.sleep_ns 7_000_000_000;
      let runs = E1000_drv.watchdog_runs t in
      check_bool "watchdog ran about 3 times" true (runs >= 2 && runs <= 4);
      let crossings_after = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      check "one crossing per watchdog run" runs (crossings_after - crossings_before);
      let ka = E1000_drv.kernel_adapter t in
      check "watchdog events marshaled back to the kernel object" runs
        (Xpc.Codec.get ka.E1000_objects.fields E1000_objects.watchdog_events);
      check_bool "link seen up" true
        (Xpc.Codec.get ka.E1000_objects.fields E1000_objects.link_up);
      Driver_core.rmmod "e1000")

let test_e1000_open_fault_injection () =
  (* Figure 4 semantics: a failure at each stage of open unwinds exactly
     the resources acquired before it. *)
  let try_with_failure nth =
    Scenario.boot ();
    ignore (setup_e1000 ());
    in_thread (fun () ->
        let t = insmod_e1000 Driver_env.Decaf in
        let nd = E1000_drv.netdev t in
        K.Kmem.inject_failure ~after:nth;
        let rc = K.Netcore.open_dev nd in
        K.Kmem.clear_injection ();
        (match rc with
        | Ok () -> Alcotest.fail "open should have failed"
        | Error rc -> check "ENOMEM" (-12) rc);
        let live, _ = K.Kmem.outstanding () in
        check "no ring leaked on the error path" 0 live;
        (* the driver must still work after the failed open *)
        (match K.Netcore.open_dev nd with
        | Ok () -> ()
        | Error rc -> Alcotest.failf "recovery open failed: %d" rc);
        Driver_core.rmmod "e1000")
  in
  try_with_failure 1;
  (* tx ring allocation fails *)
  try_with_failure 2 (* rx ring allocation fails; tx ring must be freed *)

let test_e1000_bad_eeprom_rejected () =
  Scenario.boot ();
  let _, model = setup_e1000 () in
  (* corrupt the EEPROM checksum *)
  Hw.Eeprom.write (Hw.E1000_hw.eeprom model) 10 0x1234;
  in_thread (fun () ->
      match Driver_core.insmod "e1000" ~mode:Driver_env.Decaf with
      | Ok () -> Alcotest.fail "probe should reject a bad EEPROM"
      | Error rc ->
          (* the module loader sees no bound device; the probe's EIO is
             in the kernel log *)
          check "ENODEV from insmod" (-19) rc;
          check_bool "probe failure logged with EIO" true
            (List.exists
               (fun line -> Testutil.contains line "errno -5")
               (K.Klog.dmesg ())))

let test_e1000_object_tracker_aliasing () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let ka = E1000_drv.kernel_adapter t in
      let tracker = Decaf_runtime.Runtime.java_tracker () in
      (* adapter and its first-member tx ring share a C address (§3.1.2)
         but hold distinct capability handles, so the aliasing cannot be
         abused for type confusion at the boundary *)
      check "tx ring shares the adapter address" ka.E1000_objects.k_addr
        ka.E1000_objects.k_tx_addr;
      let ha = E1000_objects.adapter_handle ka in
      let htx = E1000_objects.tx_ring_handle ka in
      check_bool "distinct handles at the shared address" true (ha <> htx);
      (* the user-level tracker is keyed by handle, never by C address *)
      check_bool "adapter findable by its handle" true
        (Xpc.Objtracker.find tracker ~addr:ha E1000_objects.adapter_key
        <> None);
      check_bool "ring findable by its own handle" true
        (Xpc.Objtracker.find tracker ~addr:htx E1000_objects.ring_key <> None);
      check_bool "raw C address resolves nothing at user level" true
        (Xpc.Objtracker.types_at tracker ~addr:ka.E1000_objects.k_addr = []);
      (* kernel-side resolution: each handle names its own type *)
      let kt = Decaf_runtime.Runtime.kernel_tracker () in
      check_bool "adapter handle resolves" true
        (Xpc.Objtracker.resolve kt ~handle:ha ~type_id:"e1000_adapter"
        = Ok ka.E1000_objects.k_addr);
      check_bool "ring handle as adapter is cross-type" true
        (match
           Xpc.Objtracker.resolve kt ~handle:htx ~type_id:"e1000_adapter"
         with
        | Error _ -> true
        | Ok _ -> false);
      Driver_core.rmmod "e1000")

let test_e1000_ethtool_data_race () =
  (* section 5: the interrupt test works in the nucleus, and the very
     same logic at user level hangs on its stale marshaled copy *)
  Scenario.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      (* the interface must be up so the irq handler is installed *)
      (match K.Netcore.open_dev (E1000_drv.netdev t) with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open: %d" rc);
      check "nucleus diag test passes" 0 (E1000_drv.diag_test t);
      let irqs_before = K.Irq.delivered 11 in
      check "user-level copy never sees the interrupt" (-110)
        (E1000_drv.diag_test_at_user_level t);
      (* the interrupt DID fire and updated the kernel object — the wait
         was on a stale marshaled copy, exactly the race of section 5.
         (The return marshal then even clobbers the kernel flag with the
         stale value, making the hazard worse.) *)
      check_bool "the interrupt fired meanwhile" true
        (K.Irq.delivered 11 > irqs_before);
      ignore (K.Netcore.stop_dev (E1000_drv.netdev t));
      Driver_core.rmmod "e1000")

let test_e1000_config_space_saved () =
  Scenario.boot ();
  ignore (setup_e1000 ());
  in_thread (fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      let ka = E1000_drv.kernel_adapter t in
      (* dword 0 of config space: device id << 16 | vendor id, copied to
         user level during probe and marshaled back *)
      check "config_space[0]" ((0x100e lsl 16) lor 0x8086)
        (Xpc.Codec.get ka.E1000_objects.fields E1000_objects.config_space).(0);
      Driver_core.rmmod "e1000")

(* --- ens1371 --- *)

let setup_snd () = Ens1371_drv.setup_device ~slot:"00:06.0" ~io_base:0xd000 ~irq:9 ()

let ens1371_playback mode () =
  Scenario.boot ();
  let model = setup_snd () in
  in_thread (fun () ->
      let t = bind "ens1371" mode Ens1371_drv.active in
      check_bool "card registered" true (K.Sndcore.card_registered (Ens1371_drv.card t));
      let sub = Ens1371_drv.substream t in
      (match K.Sndcore.pcm_open sub with Ok () -> () | Error rc -> Alcotest.failf "open: %d" rc);
      (match K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:2 ~sample_bits:16 with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "params: %d" rc);
      (match K.Sndcore.pcm_prepare sub with Ok () -> () | Error rc -> Alcotest.failf "prep: %d" rc);
      (* queue one second of 44.1kHz 16-bit stereo audio *)
      K.Sndcore.pcm_write sub 16384;
      K.Sndcore.pcm_start sub;
      let total = 44100 * 4 in
      let written = ref 16384 in
      while !written < total do
        let chunk = min 16384 (total - !written) in
        K.Sndcore.pcm_write sub chunk;
        written := !written + chunk
      done;
      (* drain: stop as soon as the DAC has consumed everything *)
      while Hw.Ens1371_hw.consumed model < total do
        K.Sched.sleep_ns 5_000_000
      done;
      K.Sndcore.pcm_stop sub;
      K.Sndcore.pcm_close sub;
      check "all audio consumed" total (Hw.Ens1371_hw.consumed model);
      check_bool "played for about a second" true (K.Clock.now () >= 900_000_000);
      check_bool "no underruns while draining" true (Hw.Ens1371_hw.underruns model <= 1);
      Driver_core.rmmod "ens1371");
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_ens1371_reject_bad_params () =
  Scenario.boot ();
  ignore (setup_snd ());
  in_thread (fun () ->
      let t = bind "ens1371" Driver_env.Decaf Ens1371_drv.active in
      let sub = Ens1371_drv.substream t in
      (match K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:1 ~sample_bits:16 with
      | Error rc -> check "EINVAL" (-22) rc
      | Ok () -> Alcotest.fail "mono should be rejected");
      Driver_core.rmmod "ens1371")

let test_ens1371_decaf_called_on_start_stop_only () =
  Scenario.boot ();
  ignore (setup_snd ());
  in_thread (fun () ->
      let t = bind "ens1371" Driver_env.Decaf Ens1371_drv.active in
      let sub = Ens1371_drv.substream t in
      ignore (K.Sndcore.pcm_open sub);
      ignore (K.Sndcore.pcm_set_params sub ~rate:44100 ~channels:2 ~sample_bits:16);
      ignore (K.Sndcore.pcm_prepare sub);
      K.Sndcore.pcm_write sub 16384;
      K.Sndcore.pcm_start sub;
      let batch_crossings () =
        let s = Xpc.Batch.stats () in
        s.Xpc.Batch.flush_crossings + s.Xpc.Batch.single_crossings
      in
      let at_start = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      let batch0 = batch_crossings () in
      (* steady-state playback: write and drain for a while *)
      for _ = 1 to 20 do
        K.Sndcore.pcm_write sub 8192
      done;
      while K.Sndcore.pcm_bytes_queued sub > 0 do
        K.Sched.sleep_ns 50_000_000
      done;
      let during = (Xpc.Channel.stats ()).Xpc.Channel.kernel_user_calls in
      let batch1 = batch_crossings () in
      (* The PCM data path itself never upcalls: every steady-state
         crossing is a deferred hardware-pointer sync delivered by
         the batch machinery, never a synchronous call. *)
      check "only deferred syncs cross during steady playback"
        (during - at_start) (batch1 - batch0);
      check_bool "pointer syncs were delivered" true
        ((Driver_core.snapshot "ens1371").Driver_core.s_deferred_syncs > 0);
      K.Sndcore.pcm_stop sub;
      K.Sndcore.pcm_close sub;
      Driver_core.rmmod "ens1371")

(* --- uhci --- *)

let uhci_write_file mode () =
  Scenario.boot ();
  let model = Uhci_drv.setup_device ~io_base:0xe000 ~irq:5 () in
  in_thread (fun () ->
      let t = bind "uhci-hcd" mode Uhci_drv.active in
      (* write 64 KiB to the flash drive through bulk URBs *)
      let chunk = 4096 in
      let chunks = 16 in
      for _ = 1 to chunks do
        match
          K.Usbcore.bulk_msg ~direction:K.Usbcore.Dir_out ~endpoint:2
            (Bytes.make chunk 'd')
        with
        | Ok n -> check "chunk transferred" chunk n
        | Error rc -> Alcotest.failf "bulk_msg failed: %d" rc
      done;
      check "drive received all data" (chunk * chunks)
        (Hw.Uhci_hw.drive_bytes_written model);
      check "urbs completed" chunks (Uhci_drv.urbs_completed t);
      (* 64 KiB at ~1280 B per 1 ms frame: at least 51 ms of bus time *)
      check_bool "usb 1.1 bandwidth respected" true (K.Clock.now () >= 51_000_000);
      Driver_core.rmmod "uhci-hcd");
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

(* --- psmouse --- *)

let psmouse_stream mode () =
  Scenario.boot ();
  let model = Psmouse_drv.setup_device () in
  in_thread (fun () ->
      let t = bind "psmouse" mode Psmouse_drv.active in
      check "plain ps/2 id detected" 0 (Psmouse_drv.detected_id t);
      let input = Psmouse_drv.input_dev t in
      let rels = ref 0 and syncs = ref 0 in
      K.Inputcore.set_handler input (function
        | K.Inputcore.Rel (dx, dy) ->
            rels := !rels + 1;
            check_bool "movement deltas sane" true (abs dx <= 255 && abs dy <= 255)
        | K.Inputcore.Key _ -> ()
        | K.Inputcore.Sync_report -> incr syncs);
      for i = 1 to 30 do
        Hw.Psmouse_hw.move model ~dx:i ~dy:(-i) ~buttons:(i mod 2);
        K.Sched.sleep_ns 10_000_000
      done;
      K.Sched.sleep_ns 10_000_000;
      check "all packets delivered" 30 (Psmouse_drv.packets_handled t);
      check "relative events" 30 !rels;
      check "sync per packet" 30 !syncs;
      Driver_core.rmmod "psmouse");
  match K.Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg

let test_psmouse_negotiation_crossings () =
  Scenario.boot ();
  ignore (Psmouse_drv.setup_device ());
  in_thread (fun () ->
      ignore (bind "psmouse" Driver_env.Decaf Psmouse_drv.active);
      let st = Xpc.Channel.stats () in
      check_bool "negotiation crossed kernel/user" true
        (st.Xpc.Channel.kernel_user_calls >= 3);
      Driver_core.rmmod "psmouse")

(* --- staged mode: the migration path of section 5.3 --- *)

let test_staged_mode_is_c_only () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
  in_thread (fun () ->
      let t = bind "8139too" Driver_env.Staged Rtl8139_drv.active in
      (match K.Netcore.open_dev (Rtl8139_drv.netdev t) with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let st = Xpc.Channel.stats () in
      check_bool "user-level code ran (kernel/user crossings)" true
        (st.Xpc.Channel.kernel_user_calls >= 4);
      check "no C/Java transitions while staged" 0 st.Xpc.Channel.c_java_calls;
      check_bool "managed runtime never started" false
        (Decaf_runtime.Runtime.started ());
      Driver_core.rmmod "8139too")

let test_staged_init_faster_than_decaf () =
  let init_of mode =
    Scenario.boot ();
    let link = Hw.Link.create ~rate_bps:100_000_000 () in
    ignore
      (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac ~link ());
    in_thread (fun () ->
        ignore (bind "8139too" mode Rtl8139_drv.active);
        let l = init_latency_ns "8139too" in
        Driver_core.rmmod "8139too";
        l)
  in
  let staged = init_of Driver_env.Staged in
  let decaf = init_of Driver_env.Decaf in
  check_bool "staged avoids the managed-runtime start" true (staged * 2 < decaf)

(* --- frame sharing: nothing writes a frame after it is handed over --- *)

(* The traffic generators send every message from one buffer and the
   drivers hand the skb's own bytes to the device model (DESIGN §5), so
   a driver or model that wrote a frame after the handover would corrupt
   every later message. Each test sends and injects one patterned buffer
   many times: the wire and the stack must see exactly its bytes, and
   the buffer must come back unchanged. *)

let pattern len = Bytes.init len (fun i -> Char.chr (((i * 31) + 7) land 0xff))

let check_frame_sharing ~link ~bring_up ~len ~frames =
  let buf = pattern len in
  let copy = Bytes.copy buf in
  let wire = ref 0 and wire_same = ref 0 in
  Hw.Link.set_peer link (fun _ frame ->
      incr wire;
      if Bytes.equal frame copy then incr wire_same);
  let rx = ref 0 and rx_same = ref 0 in
  in_thread (fun () ->
      let nd, unload = bring_up () in
      K.Netcore.set_rx_handler nd (fun skb ->
          incr rx;
          if Bytes.equal skb.K.Netcore.Skb.data copy then incr rx_same);
      (match K.Netcore.open_dev nd with
      | Ok () -> ()
      | Error rc -> Alcotest.failf "open failed: %d" rc);
      let skb = K.Netcore.Skb.of_bytes buf in
      for _ = 1 to frames do
        while K.Netcore.dev_queue_xmit nd skb <> K.Netcore.Xmit_ok do
          K.Sched.sleep_ns 100_000
        done
      done;
      K.Sched.sleep_ns 10_000_000;
      for _ = 1 to frames do
        Hw.Link.inject link buf
      done;
      K.Sched.sleep_ns 50_000_000;
      unload ());
  check "every frame reached the wire" frames !wire;
  check "the wire saw the buffer's bytes" frames !wire_same;
  check "every injected frame reached the stack" frames !rx;
  check "netif_rx saw the injected bytes" frames !rx_same;
  check_bool "the buffer is unchanged" true (Bytes.equal buf copy)

let test_e1000_frames_unwritten () =
  Scenario.boot ();
  let link, _ = setup_e1000 () in
  check_frame_sharing ~link ~len:1500 ~frames:300 ~bring_up:(fun () ->
      let t = insmod_e1000 Driver_env.Decaf in
      (E1000_drv.netdev t, fun () -> Driver_core.rmmod "e1000"))

let test_rtl8139_frames_unwritten () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10 ~mac
       ~link ());
  check_frame_sharing ~link ~len:1000 ~frames:40 ~bring_up:(fun () ->
      let t = bind "8139too" Driver_env.Decaf Rtl8139_drv.active in
      (Rtl8139_drv.netdev t, fun () -> Driver_core.rmmod "8139too"))

(* A TSD size shorter than the staged buffer sends a prefix: the model
   copies it out and leaves the buffer alone. *)
let test_rtl8139_short_tsd_copy () =
  Scenario.boot ();
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  let model = Hw.Rtl8139.create ~io_base:0xc000 ~irq:10 ~mac ~link in
  let buf = pattern 1000 in
  let copy = Bytes.copy buf in
  let seen = ref [] in
  Hw.Link.set_peer link (fun _ frame -> seen := Bytes.to_string frame :: !seen);
  K.Io.outb (0xc000 + Hw.Rtl8139.cmd) Hw.Rtl8139.cmd_te;
  let sizes = List.init Hw.Rtl8139.n_tx_desc (fun n -> 600 + n) in
  List.iteri
    (fun n size ->
      Hw.Rtl8139.stage_tx_buffer model n buf;
      K.Io.outl (0xc000 + Hw.Rtl8139.tsd0 + (4 * n)) size)
    sizes;
  ignore (K.Clock.advance_to_next_event ());
  while K.Clock.advance_to_next_event () do () done;
  Alcotest.(check (list string))
    "each frame is the buffer's prefix"
    (List.map (fun size -> Bytes.sub_string copy 0 size) sizes)
    (List.rev !seen);
  check_bool "the buffer is unchanged" true (Bytes.equal buf copy);
  Hw.Rtl8139.destroy model

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_drivers"
    [
      ( "rtl8139",
        [
          tc "native roundtrip" (rtl8139_roundtrip Driver_env.Native);
          tc "staged roundtrip" (rtl8139_roundtrip Driver_env.Staged);
          tc "decaf roundtrip" (rtl8139_roundtrip Driver_env.Decaf);
          tc "staged is C only" test_staged_mode_is_c_only;
          tc "staged init faster than decaf" test_staged_init_faster_than_decaf;
          tc "decaf crossings" test_rtl8139_decaf_crossings;
          tc "decaf init slower" test_rtl8139_decaf_init_slower;
          tc "frame allocation" test_rtl8139_frame_alloc;
        ] );
      ( "e1000",
        [
          tc "native roundtrip" (e1000_roundtrip Driver_env.Native);
          tc "decaf roundtrip" (e1000_roundtrip Driver_env.Decaf);
          tc "xmit allocation" test_e1000_xmit_alloc;
          tc "frame allocation" test_e1000_frame_alloc;
          tc "receive allocation" test_e1000_rx_alloc;
          tc "watchdog runs in decaf" test_e1000_watchdog_runs_in_decaf;
          tc "open fault injection" test_e1000_open_fault_injection;
          tc "bad eeprom rejected" test_e1000_bad_eeprom_rejected;
          tc "object tracker aliasing" test_e1000_object_tracker_aliasing;
          tc "config space saved" test_e1000_config_space_saved;
          tc "ethtool data race (sec. 5)" test_e1000_ethtool_data_race;
        ] );
      ( "frame sharing",
        [
          tc "e1000 leaves frames unwritten" test_e1000_frames_unwritten;
          tc "8139too leaves frames unwritten" test_rtl8139_frames_unwritten;
          tc "8139too short TSD copies a prefix" test_rtl8139_short_tsd_copy;
        ] );
      ( "ens1371",
        [
          tc "native playback" (ens1371_playback Driver_env.Native);
          tc "decaf playback" (ens1371_playback Driver_env.Decaf);
          tc "reject bad params" test_ens1371_reject_bad_params;
          tc "decaf only at start/stop" test_ens1371_decaf_called_on_start_stop_only;
        ] );
      ( "uhci",
        [
          tc "native write to flash" (uhci_write_file Driver_env.Native);
          tc "decaf write to flash" (uhci_write_file Driver_env.Decaf);
        ] );
      ( "psmouse",
        [
          tc "native stream" (psmouse_stream Driver_env.Native);
          tc "decaf stream" (psmouse_stream Driver_env.Decaf);
          tc "negotiation crossings" test_psmouse_negotiation_crossings;
        ] );
    ]
