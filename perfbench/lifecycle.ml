(* lifecycle: seeded scripts of control-path ops over four e1000 ports
   and the four classic devices, with a reboot every [ops_per_boot] ops
   and little traffic. Channel, Marshal_plan/Xdr, Guard, Objtracker,
   Driver_core and Boot do nearly all the host work; the Clock/Irq/hw
   datapath barely runs. It issues and revokes tracker handles where
   fleet resolves them, drains or discards rings at teardown where fleet
   drains them steadily, and cancels and resets the clock where fleet
   inserts and fires.

   Each step picks uniformly among the ops legal in the current state:
   bind/insmod, rmmod, suspend, resume, surprise-remove (always followed
   by its replug), open, stop, and a short stream out of one open e1000
   port, which is the workload's only traffic. *)

module K = Decaf_kernel
module W = Decaf_workloads
open Decaf_drivers

let e1000_ports = 4

(* A stream is long enough for a stats rollup (one per 256 frames) to
   ride the port's ring, so ring residency is measured here too, and
   rare enough (one step in [burst_odds]) that the control path keeps
   most of the host time. *)
let burst_ns = 5_000_000
let burst_odds = 100

type dev = {
  driver : string;
  port : int option;  (** e1000 port index *)
  mutable id : string option;  (** the binding this device holds *)
}

type action =
  | Bind of dev
  | Rmmod of dev
  | Suspend of dev
  | Resume of dev
  | Remove of dev
  | Open of K.Netcore.t
  | Stop of K.Netcore.t
  | Burst

(* xorshift64*, as in the soak: a script is a function of the seed *)
let make_rng seed =
  let s = ref (if seed = 0 then 0x2545F4914F6CDD1D else seed) in
  fun bound ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x;
    (x land max_int) mod bound

let state d =
  match d.id with None -> Driver_core.Removed | Some id -> Driver_core.state id

let netdev d =
  match (d.port, d.driver) with
  | Some i, _ -> E1000_drv.netdev_at ~slot:(Machine.e1000_slot i)
  | None, "8139too" -> Option.map Rtl8139_drv.netdev (Rtl8139_drv.active ())
  | None, _ -> None

let candidates devs =
  List.concat_map
    (fun d ->
      match state d with
      | Driver_core.Running ->
          [ Rmmod d; Suspend d; Remove d ]
          @ (match netdev d with
            | Some nd -> [ (if K.Netcore.is_up nd then Stop nd else Open nd) ]
            | None -> [])
      | Driver_core.Suspended -> [ Resume d; Rmmod d ]
      | Driver_core.Disabled -> [ Rmmod d ]
      | Driver_core.Removed | Driver_core.Unbound -> [ Bind d ]
      | Driver_core.Probed | Driver_core.Recovering -> [])
    devs

(* e1000 ports that are bound, up, and can stream, with their links *)
let streams devs links =
  List.filter_map
    (fun d ->
      match (d.port, state d) with
      | Some i, Driver_core.Running -> (
          match netdev d with
          | Some nd when K.Netcore.is_up nd ->
              Some (i, { W.Vswitch.netdev = nd; link = List.nth links i })
          | _ -> None)
      | _ -> None)
    devs

type traffic = {
  mutable bits : float;
  mutable ns : int;
  mutable packets : int;
  port_bits : float array;
  port_ns : int array;
}

let bind m devs d =
  match d.port with
  | Some i -> (
      match Machine.bind_e1000 m i with
      | Some id ->
          (* the registry reuses a free binding, possibly one this
             script last saw on another port *)
          List.iter (fun o -> if o.id = Some id then o.id <- None) devs;
          d.id <- Some id
      | None -> ())
  | None -> ignore (Machine.insmod m d.driver)

let replug m d =
  match d.port with
  | Some i ->
      ignore
        (Meter.op m "replug" (fun () ->
             K.Pci.add_device
               (K.Pci.make_dev ~slot:(Machine.e1000_slot i) ~vendor:0x8086
                  ~device:0x100e ~irq_line:(32 + i)
                  ~bars:
                    [
                      {
                        K.Pci.kind = K.Pci.Mmio_bar;
                        base = 0xe000_0000 + (i * 0x20000);
                        len = 0x20000;
                      };
                    ]
                  ());
             state d = Driver_core.Running))
  | None -> ignore (Machine.insmod m ~kind:"replug" d.driver)

let remove m d =
  Meter.op m "remove" (fun () ->
      (match d.port with
      | Some i -> (
          match
            List.find_opt
              (fun p -> K.Pci.slot p = Machine.e1000_slot i)
              (K.Pci.devices ())
          with
          | Some p -> K.Pci.remove_device p
          | None -> ())
      | None -> Driver_core.eject d.driver);
      state d = Driver_core.Removed)

let step m devs links traffic rng =
  let s = streams devs links in
  let cs = Array.of_list (candidates devs) in
  let action =
    if s <> [] && rng burst_odds = 0 then Some Burst
    else if Array.length cs > 0 then Some cs.(rng (Array.length cs))
    else None
  in
  match action with
  | None -> ()
  | Some action -> (
    match action with
    | Bind d -> bind m devs d
    | Rmmod d -> ignore (Machine.rmmod m (Option.get d.id))
    | Suspend d ->
        ignore
          (Meter.op m "suspend" (fun () ->
               Meter.ok_unit (Driver_core.suspend (Option.get d.id))))
    | Resume d ->
        ignore
          (Meter.op m "resume" (fun () ->
               Meter.ok_unit (Driver_core.resume (Option.get d.id))
               && state d = Driver_core.Running))
    | Remove d -> if remove m d then replug m d
    | Open nd -> ignore (Machine.open_dev m nd)
    | Stop nd ->
        ignore
          (Meter.op m "stop" (fun () -> Meter.ok_unit (K.Netcore.stop_dev nd)))
    | Burst ->
        let i, port = List.nth s (rng (List.length s)) in
        ignore
          (Meter.op m "burst" (fun () ->
               let r =
                 W.Vswitch.run ~ports:[ port ] ~duration_ns:burst_ns ~msg_bytes:1500
               in
               let ns = r.W.Vswitch.elapsed_ns in
               let bits = r.W.Vswitch.aggregate_mbps *. float_of_int ns /. 1e3 in
               traffic.bits <- traffic.bits +. bits;
               traffic.ns <- traffic.ns + ns;
               traffic.packets <- traffic.packets + r.W.Vswitch.packets;
               traffic.port_bits.(i) <- traffic.port_bits.(i) +. bits;
               traffic.port_ns.(i) <- traffic.port_ns.(i) + ns;
               r.W.Vswitch.packets > 0)))

(* One machine life: boot, bind and open everything (set-up), run the
   script, unload everything and check quiescence. *)
let life m ~first ~ops_per_boot traffic rng =
  Spans.new_run ();
  Meter.setup_begin m;
  let links =
    Meter.boot m (fun () ->
        Meter.boot_machine ();
        let links = List.init e1000_ports Machine.add_e1000 in
        Machine.add_classic ();
        links)
  in
  let base = Meter.baseline () in
  let devs =
    List.init e1000_ports (fun i -> { driver = "e1000"; port = Some i; id = None })
    @ List.map (fun name -> { driver = name; port = None; id = Some name })
        Machine.classic
  in
  Meter.in_thread (fun () ->
      List.iter (bind m devs) devs;
      List.iter
        (fun d -> Option.iter (fun nd -> ignore (Machine.open_dev m nd)) (netdev d))
        devs;
      Meter.setup_end m;
      if first then Meter.run_begin m;
      for _ = 1 to ops_per_boot do
        step m devs links traffic rng
      done;
      List.iter
        (fun d ->
          match state d with
          | Driver_core.Running | Driver_core.Suspended | Driver_core.Disabled ->
              ignore (Machine.rmmod m (Option.get d.id))
          | _ -> ())
        devs;
      Machine.drain ());
  List.iter
    (fun id ->
      let s = Driver_core.state id in
      Meter.check m (s = Driver_core.Removed) "lifecycle: binding %s ends %s" id
        (Driver_core.lifecycle_name s))
    (Driver_core.instances_of "e1000" @ Machine.classic);
  Meter.quiescent m ~what:"lifecycle" base

let run m ~seed ~boots ~ops_per_boot =
  let rng = make_rng seed in
  let traffic =
    {
      bits = 0.;
      ns = 0;
      packets = 0;
      port_bits = Array.make e1000_ports 0.;
      port_ns = Array.make e1000_ports 0;
    }
  in
  for b = 1 to boots do
    life m ~first:(b = 1) ~ops_per_boot traffic rng
  done;
  Meter.run_end m;
  let l = m.Meter.layers in
  m.Meter.cpu_util <- float_of_int l.Layers.busy_ns /. float_of_int (max 1 l.Layers.elapsed_ns);
  m.Meter.goodput_mbps <- traffic.bits /. float_of_int (max 1 traffic.ns) *. 1e3;
  m.Meter.port_mbps <-
    List.filter_map
      (fun i ->
        if traffic.port_ns.(i) = 0 then None
        else Some (traffic.port_bits.(i) /. float_of_int traffic.port_ns.(i) *. 1e3))
      (List.init e1000_ports Fun.id);
  m.Meter.paths <- Layers.path_stats l;
  m.Meter.counts <- [ ("vswitch.packets", traffic.packets) ];
  m.Meter.attempted <- Meter.op_count m;
  m.Meter.failed <- m.Meter.failed_ops
