(* The mixed-traffic soak: every driver at once, for a long virtual
   stretch, with the latency registry as the figure of merit.

   An e1000 fleet streams bursty, heavy-tailed flows through the
   virtual switch while the 8139too pushes netperf bursts, the ens1371
   plays audio continuously, the UHCI untars onto the flash drive and
   the mouse storms events — all in one booted machine, so the XPC
   lanes, batch queues and rings carry genuinely mixed traffic.

   Two phases run back to back over the same devices:

   - "steady": fault-free. The gate phase — audio must not miss a
     single period deadline here.
   - "churn": the same traffic under background fault plans (link
     flaps, spurious interrupts), hotplug storms on the fleet ports and
     the mouse, and suspend/resume cycles on the e1000 and the HCD.

   Each phase ends with a percentile snapshot of every event path the
   cost model tracks ({!Decaf_kernel.Latency}), and the whole run ends
   at quiescence: every binding unloaded, batch queues drained, and the
   object trackers and kmalloc ledger compared against the post-boot
   baseline — a soak that leaks is a failed soak.

   The caller boots the machine and applies an XPC configuration first
   (see {!Decaf_experiments.Soak} for the measured entry point); [run]
   must not be called from inside a scheduler thread. *)

module K = Decaf_kernel
module Hw = Decaf_hw
module Xpc = Decaf_xpc
module FI = K.Faultinject
open Decaf_drivers

type path_stats = {
  path : string;
  samples : int;
  overflow : int;
  p50_ns : int;
  p99_ns : int;
  p999_ns : int;
  max_ns : int;
}

type phase = {
  phase_name : string;
  phase_ns : int;
  paths : path_stats list;
  audio_periods : int;
  audio_misses : int;
  packets : int;
  input_events : int;
  usb_bytes : int;
}

type result = {
  steady : phase;
  churn : phase;
  leaked_tracker_entries : int;
  leaked_kmalloc_blocks : int;
  leaked_kmalloc_bytes : int;
}

let default_phase_ns = 2_000_000_000
let input_event = K.Latency.path "input.event"

let tracker_entries () =
  Xpc.Objtracker.entries (Decaf_runtime.Runtime.kernel_tracker ())
  + Xpc.Objtracker.entries (Decaf_runtime.Runtime.java_tracker ())

(* xorshift64*: deterministic per seed, so a soak schedule is
   reproducible from its (seed, fleet, phase_ns) triple alone. *)
let make_rng seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    x land max_int

(* Heavy-tailed on/off gating: burst lengths follow a truncated
   Pareto-ish law (u^-1 scaled into [lo, hi]), idle gaps a shorter
   uniform draw — a few long bursts dominate, as packet traces do. *)
let burst_ns rng =
  let u = 1 + (rng () mod 1000) in
  let b = 2_000_000 * 1000 / u in
  min 50_000_000 (max 2_000_000 b)

let gap_ns rng = 500_000 + (rng () mod 2_000_000)

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"soak" (fun () -> result := Some (f ())));
  K.Sched.run ();
  match !result with
  | Some v -> v
  | None -> K.Panic.bug "soak: workload thread did not complete"

let snapshot_paths () =
  List.filter_map
    (fun p ->
      match K.Latency.find p with
      | Some h when K.Latency.count h > 0 ->
          Some
            {
              path = p;
              samples = K.Latency.count h;
              overflow = K.Latency.overflow_count h;
              p50_ns = K.Latency.percentile h 0.50;
              p99_ns = K.Latency.percentile h 0.99;
              p999_ns = K.Latency.percentile h 0.999;
              max_ns = K.Latency.max_ns h;
            }
      | _ -> None)
    (K.Latency.paths ())

let run ?(fleet = 3) ?(seed = 0x50a11) ?(phase_ns = default_phase_ns) () =
  let base_tracker = tracker_entries () in
  let base_blocks, base_bytes = K.Kmem.outstanding () in
  (* --- devices: the fleet ports from slot 00:00.0 up, then the
     classic four (see {!Rig}) --- *)
  let fleet = max 2 fleet in
  let links = List.init fleet (fun port -> Rig.plug_e1000 ~port ()) in
  let link100 = Rig.plug_8139too () in
  let ens_model = Rig.plug_ens1371 () in
  let uhci_model = Rig.plug_uhci () in
  let ps_model = Rig.plug_psmouse () in
  in_thread (fun () ->
      ignore
        (List.init fleet (fun i ->
             Rig.ok "soak fleet bind"
               (Driver_core.bind_device "e1000" ~dev:(Rig.port_slot i)
                  ~mode:Driver_env.Decaf ())));
      List.iter
        (fun name ->
          Rig.ok (name ^ " insmod")
            (Driver_core.insmod name ~mode:Driver_env.Decaf))
        [ "8139too"; "ens1371"; "uhci-hcd"; "psmouse" ];
      let rtl = Option.get (Rtl8139_drv.active ()) in
      Rig.ok "8139too open" (K.Netcore.open_dev (Rtl8139_drv.netdev rtl));

      (* One phase: five concurrent traffic threads over the shared
         machine. Churn actions run inside the thread that owns the
         affected device, between its own bursts, so a suspend never
         races that device's traffic (the other four keep running). *)
      let run_phase ~churn name =
        let rng = make_rng (seed lxor (if churn then 0x5afe else 0)) in
        let t0 = K.Clock.now () in
        let deadline = t0 + phase_ns in
        let periods0 = Hw.Ens1371_hw.periods_played ens_model in
        let underruns0 = Hw.Ens1371_hw.underruns ens_model in
        let packets = ref 0 and input_events = ref 0 and usb_bytes = ref 0 in
        if churn then
          FI.arm ~seed
            [
              FI.spec ~site:"hw.link" ~kind:FI.Link_flap
                ~trigger:(FI.Prob 0.01) ();
              FI.spec ~site:"irq.spurious" ~kind:FI.Spurious_irq
                ~trigger:(FI.Prob 0.5) ();
            ];
        (if churn then
           (* background spurious-interrupt plan: random pokes at the
              8139too and fleet lines, gated through the fault engine *)
           let rec poke () =
             if K.Clock.now () < deadline then begin
               let lines = Rig.irq "8139too" :: List.init fleet Rig.port_irq in
               let irq = List.nth lines (rng () mod List.length lines) in
               if FI.fires ~site:"irq.spurious" FI.Spurious_irq then
                 K.Irq.raise_irq irq;
               ignore (K.Clock.after (1_000_000 + (rng () mod 9_000_000)) poke)
             end
           in
           ignore (K.Clock.after 1_000_000 poke));
        let done_count = ref 0 in
        let want = 5 (* the traffic threads spawned below *) in
        let spawn name f =
          ignore
            (K.Sched.spawn ~name (fun () ->
                 f ();
                 incr done_count))
        in
        (* fleet: bursty heavy-tailed vswitch flows; in churn, hotplug
           storms on ports >= 1 and suspend/resume on instance 0 ride
           between bursts *)
        spawn "soak-fleet" (fun () ->
            let step = ref 0 in
            while K.Clock.now () < deadline do
              let ports =
                List.concat
                  (List.mapi
                     (fun i link ->
                       match E1000_drv.netdev_at ~slot:(Rig.port_slot i) with
                       | Some nd ->
                           if not (K.Netcore.is_up nd) then
                             ignore (K.Netcore.open_dev nd);
                           if K.Netcore.is_up nd then
                             [ { Vswitch.netdev = nd; link } ]
                           else []
                       | None -> [])
                     links)
              in
              let b = min (burst_ns rng) (deadline - K.Clock.now ()) in
              if ports <> [] && b > 0 then begin
                let r = Vswitch.run ~ports ~duration_ns:b ~msg_bytes:1500 in
                packets := !packets + r.Vswitch.packets
              end;
              if churn then begin
                incr step;
                match !step mod 3 with
                | 0 ->
                    (* hotplug storm: surprise-remove a port, replug it *)
                    let port = 1 + (rng () mod (fleet - 1)) in
                    Rig.replug_e1000 ~port ~gap_ns:500_000 ()
                | 1 ->
                    (* power-management cycle on the lead instance *)
                    (match Driver_core.suspend "e1000" with
                    | Ok () -> ignore (Driver_core.resume "e1000")
                    | Error _ -> ())
                | _ -> ()
              end;
              let g = min (gap_ns rng) (max 0 (deadline - K.Clock.now ())) in
              if g > 0 then K.Sched.sleep_ns g
            done);
        (* 8139too: netperf in bursts on its own link, alternating send
           and receive so both wire directions contribute timelines *)
        spawn "soak-rtl" (fun () ->
            let nd = Rtl8139_drv.netdev rtl in
            let step = ref 0 in
            while K.Clock.now () < deadline do
              let b = min (burst_ns rng) (deadline - K.Clock.now ()) in
              if b > 0 && K.Netcore.is_up nd then begin
                incr step;
                let run = if !step mod 2 = 0 then Netperf.recv else Netperf.send in
                let r = run ~netdev:nd ~link:link100 ~duration_ns:b ~msg_bytes:1500 in
                packets := !packets + r.Netperf.packets
              end;
              let g = min (gap_ns rng) (max 0 (deadline - K.Clock.now ())) in
              if g > 0 then K.Sched.sleep_ns g
            done);
        (* ens1371: continuous playback, the deadline-sensitive stream *)
        spawn "soak-audio" (fun () ->
            let remaining = deadline - K.Clock.now () in
            if remaining > 0 then
              match Ens1371_drv.active () with
              | Some t ->
                  ignore
                    (Mpg123.play
                       ~substream:(Ens1371_drv.substream t)
                       ~model:ens_model ~duration_ns:remaining)
              | None -> ());
        (* uhci: tar loops; churn adds suspend/resume between archives *)
        spawn "soak-usb" (fun () ->
            let step = ref 0 in
            while K.Clock.now () < deadline do
              let r = Tar_usb.untar ~model:uhci_model ~files:2 ~file_bytes:8192 in
              usb_bytes := !usb_bytes + r.Tar_usb.bytes_written;
              incr step;
              if churn && !step mod 2 = 0 then (
                match Driver_core.suspend "uhci-hcd" with
                | Ok () -> ignore (Driver_core.resume "uhci-hcd")
                | Error _ -> ());
              K.Sched.sleep_ns (gap_ns rng)
            done);
        (* psmouse: event storms in chunks; churn ejects and re-loads the
           module between chunks (draining the orphaned birth stamps) *)
        spawn "soak-mouse" (fun () ->
            let step = ref 0 in
            while K.Clock.now () < deadline do
              (match Psmouse_drv.active () with
              | Some t ->
                  let b =
                    min (10_000_000 + (rng () mod 20_000_000))
                      (deadline - K.Clock.now ())
                  in
                  if b > 0 then begin
                    let r =
                      Mouse_move.run ~model:ps_model
                        ~input:(Psmouse_drv.input_dev t) ~duration_ns:b
                    in
                    input_events := !input_events + r.Mouse_move.events_delivered
                  end
              | None -> K.Sched.sleep_ns 1_000_000);
              incr step;
              if churn && !step mod 4 = 0 then begin
                Driver_core.eject "psmouse";
                K.Clock.track_drain input_event;
                Rig.ok "psmouse reinsmod"
                  (Driver_core.insmod "psmouse" ~mode:Driver_env.Decaf)
              end
            done);
        while !done_count < want do
          K.Sched.sleep_ns 1_000_000
        done;
        if churn then FI.disarm ();
        let underruns = Hw.Ens1371_hw.underruns ens_model - underruns0 in
        let phase =
          {
            phase_name = name;
            phase_ns;
            paths = snapshot_paths ();
            audio_periods = Hw.Ens1371_hw.periods_played ens_model - periods0;
            (* one continuous play per phase: its final, deliberately
               partial period is the workload ending, not a missed
               deadline (same convention as the mpg123 tests) *)
            audio_misses = max 0 (underruns - 1);
            packets = !packets;
            input_events = !input_events;
            usb_bytes = !usb_bytes;
          }
        in
        (* phase window: zero the histograms, keep the paths *)
        K.Latency.clear_paths ();
        phase
      in
      let steady = run_phase ~churn:false "steady" in
      let churn = run_phase ~churn:true "churn" in
      (* --- quiescence: unload everything, then hold the ledgers to
         the post-boot baseline --- *)
      List.iter
        (fun id ->
          if Driver_core.lifecycle_name (Driver_core.state id) <> "removed"
          then Driver_core.rmmod id)
        (Driver_core.instances_of "e1000");
      List.iter Driver_core.rmmod [ "8139too"; "ens1371"; "uhci-hcd"; "psmouse" ];
      Xpc.Batch.drain ();
      let blocks, bytes = K.Kmem.outstanding () in
      {
        steady;
        churn;
        leaked_tracker_entries = tracker_entries () - base_tracker;
        leaked_kmalloc_blocks = blocks - base_blocks;
        leaked_kmalloc_bytes = bytes - base_bytes;
      })

