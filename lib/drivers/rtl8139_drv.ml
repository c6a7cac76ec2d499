module K = Decaf_kernel
module Hw = Decaf_hw
module R = Hw.Rtl8139
module RO = Rtl8139_objects
module Codec = Decaf_xpc.Codec

let driver = "8139too"
let vendor_id = 0x10ec
let device_id = 0x8139
let adapter_wire_bytes = RO.wire_size

(* Device models by PCI slot: stands in for the DMA memory the driver
   and device share. *)
let models : (string, R.t) Hashtbl.t = Hashtbl.create 4

let setup_device ~slot ~io_base ~irq ~mac ~link () =
  let model = R.create ~io_base ~irq ~mac ~link in
  Hashtbl.replace models slot model;
  K.Pci.add_device
    (K.Pci.make_dev ~slot ~vendor:vendor_id ~device:device_id ~irq_line:irq
       ~bars:[ { K.Pci.kind = K.Pci.Port_bar; base = io_base; len = 0x100 } ]
       ());
  model

type adapter = {
  env : Driver_env.t;
  scope : string;
      (** boundary scope / ring name — the binding id, distinct per
          instance ("8139too", "8139too#1", ...) *)
  slot : string;  (** PCI slot this binding claimed *)
  model : R.t;
  io_base : int;
  irq : int;
  ka : RO.kernel_nic;
  mutable netdev : K.Netcore.t option;
  mutable cur_tx : int;  (** next transmit descriptor to use *)
  mutable dirty_tx : int;  (** oldest descriptor the NIC still owns *)
  mutable pkts_since_stats : int;
  mutable xring : Decaf_xpc.Ring.t option;
      (** shared-ring XPC fast path for stats and rx-drop records *)
  lock : K.Sync.Combolock.t;
}

let reg a off = a.io_base + off

(* Run [f] on the user-level view of the nic, and post deferred
   kernel->user refreshes, as in E1000_drv. *)
let with_java_nic a ~name f = RO.with_view a.env ~scope:a.scope a.ka ~name f

let post_nic_sync a ~name = RO.post_sync a.env ~scope:a.scope a.ka ~name

let stats_notify_interval = 64

(* Ring availability, as in E1000_drv: ring allocated, axis on, and the
   user-level view exists (else fall back to full-image syncs). *)
let ring_of a =
  match a.xring with
  | Some _ as r when Decaf_xpc.Ring.enabled () && RO.user_has_view a.ka -> r
  | Some _ | None -> None

let note_packets a n =
  if n > 0 then begin
    a.pkts_since_stats <- a.pkts_since_stats + n;
    if a.pkts_since_stats >= stats_notify_interval then begin
      a.pkts_since_stats <- 0;
      match ring_of a with
      | Some ring ->
          let r = RO.ring_stats_record a.ka in
          if not (Decaf_xpc.Ring.produce ring r) then
            RO.ring_undeliverable a.ka r
      | None ->
          let fields = a.ka.RO.fields in
          Codec.set fields RO.stats_gen (Codec.get fields RO.stats_gen + 1);
          post_nic_sync a ~name:"rtl8139_stats"
    end
  end

(* --- data path: always kernel-resident (critical roots) --- *)

let tx_slots_in_flight a = a.cur_tx - a.dirty_tx

let xmit_locked a (skb : K.Netcore.Skb.t) =
  if tx_slots_in_flight a >= R.n_tx_desc then K.Netcore.Xmit_busy
  else begin
    let slot = a.cur_tx mod R.n_tx_desc in
    (* the device reads the frame out of the skb's own buffer (DMA) *)
    R.stage_tx_buffer a.model slot skb.K.Netcore.Skb.data;
    K.Io.outl (reg a (R.tsd0 + (4 * slot))) skb.K.Netcore.Skb.len;
    a.cur_tx <- a.cur_tx + 1;
    (match a.netdev with
    | Some nd ->
        let st = K.Netcore.stats nd in
        st.K.Netcore.tx_packets <- st.K.Netcore.tx_packets + 1;
        st.K.Netcore.tx_bytes <- st.K.Netcore.tx_bytes + skb.K.Netcore.Skb.len;
        if tx_slots_in_flight a >= R.n_tx_desc then K.Netcore.netif_stop_queue nd
    | None -> ());
    K.Netcore.Xmit_ok
  end

(* [Combolock.with_kernel] without its closure, as in E1000_drv. *)
let start_xmit a skb =
  K.Sync.Combolock.lock_kernel a.lock;
  match xmit_locked a skb with
  | r ->
      K.Sync.Combolock.unlock_kernel a.lock;
      r
  | exception e ->
      K.Sync.Combolock.unlock_kernel a.lock;
      raise e

let net_rx = K.Latency.path "net.rx"

let handle_rx a =
  let ring = R.rx_ring a.model in
  let received = ref 0 in
  while not (Hw.Frameq.is_empty ring) do
    let frame = Hw.Frameq.head ring and born = Hw.Frameq.head_stamp ring in
    Hw.Frameq.drop ring;
    (* per-packet receive processing, inside the net.rx span *)
    K.Clock.consume 1_000;
    incr received;
    (match a.netdev with
    | Some nd -> K.Netcore.netif_rx nd (K.Netcore.Skb.of_bytes frame)
    | None -> ());
    (* packet delivered: close the wire-arrival timeline *)
    K.Clock.complete_since net_rx born
  done;
  note_packets a !received

let interrupt a =
  let status = K.Io.inw (reg a R.isr) in
  if status <> 0 then begin
    K.Io.outw (reg a R.isr) status (* ack *);
    if status land R.isr_tok <> 0 then begin
      (* retire every descriptor the NIC has written back *)
      let retired_from = a.dirty_tx in
      let scanning = ref true in
      while !scanning && a.dirty_tx < a.cur_tx do
        let slot = a.dirty_tx mod R.n_tx_desc in
        if K.Io.inl (reg a (R.tsd0 + (4 * slot))) land R.tsd_tok <> 0 then
          a.dirty_tx <- a.dirty_tx + 1
        else scanning := false
      done;
      (if tx_slots_in_flight a < R.n_tx_desc then
         match a.netdev with
         | Some nd ->
             if K.Netcore.netif_queue_stopped nd then
               K.Netcore.netif_wake_queue nd
         | None -> ());
      note_packets a (a.dirty_tx - retired_from)
    end;
    if status land R.isr_rok <> 0 then handle_rx a;
    if status land R.isr_rx_overflow <> 0 then begin
      (match a.netdev with
      | Some nd ->
          let st = K.Netcore.stats nd in
          st.K.Netcore.rx_dropped <- st.K.Netcore.rx_dropped + 1
      | None -> ());
      match ring_of a with
      | Some ring ->
          let r = RO.ring_rx_dropped_record a.ka in
          if not (Decaf_xpc.Ring.produce ring r) then
            RO.ring_undeliverable a.ka r
      | None ->
          let fields = a.ka.RO.fields in
          Codec.set fields RO.rx_dropped (Codec.get fields RO.rx_dropped + 1);
          post_nic_sync a ~name:"rtl8139_rx_dropped"
    end
  end

(* --- initialization path: runs at user level in decaf mode --- *)

(* Port access from the initialization path: direct Jeannie calls into
   the driver library when it runs at user level. *)
let outb a off v = Driver_env.outb a.env (reg a off) v
let outw a off v = Driver_env.outw a.env (reg a off) v
let outl a off v = Driver_env.outl a.env (reg a off) v
let inb a off = Driver_env.inb a.env (reg a off)

(* Reset the chip and wait for the reset bit to clear. *)
let chip_reset a =
  outb a R.cmd R.cmd_rst;
  (* the chip takes ~10 ms to come out of reset *)
  K.Sched.sleep_ns 10_000_000;
  let tries = ref 0 in
  while inb a R.cmd land R.cmd_rst <> 0 && !tries < 100 do
    incr tries
  done;
  if !tries >= 100 then -Decaf_runtime.Errors.eio else 0

let read_mac a = String.init 6 (fun i -> Char.chr (inb a (R.idr0 + i)))

let hw_start a =
  outb a R.cmd (R.cmd_te lor R.cmd_re);
  outl a R.rcr 0xf;
  outl a R.tcr 0x600;
  outl a R.rbstart 0x10_0000;
  outw a R.imr 0xffff

let net_ops t_adapter =
  {
    K.Netcore.ndo_open =
      (fun () ->
        let a = t_adapter in
        (* open runs mostly at user level: bring the chip up there, then
           come back down to enable the queue. *)
        let rc =
          with_java_nic a ~name:"rtl8139_open" (fun _j ->
              let rc = chip_reset a in
              if rc = 0 then begin
                hw_start a;
                Driver_env.downcall a.env ~name:"netif_start_queue" ~bytes:16
                  (fun () ->
                    match a.netdev with
                    | Some nd ->
                        K.Netcore.netif_wake_queue nd;
                        K.Netcore.netif_carrier_on nd
                    | None -> ())
              end;
              rc)
        in
        if rc = 0 then Ok () else Error rc);
    ndo_stop =
      (fun () ->
        let a = t_adapter in
        (* deliver outstanding deferred notifications and ring slots
           before closing *)
        Decaf_xpc.Batch.drain ();
        Option.iter Decaf_xpc.Ring.drain a.xring;
        with_java_nic a ~name:"rtl8139_close" (fun _j ->
            outb a R.cmd 0;
            Driver_env.downcall a.env ~name:"netif_stop_queue" ~bytes:16
              (fun () ->
                match a.netdev with
                | Some nd ->
                    K.Netcore.netif_stop_queue nd;
                    K.Netcore.netif_carrier_off nd
                | None -> ()));
        Ok ());
    ndo_start_xmit = (fun skb -> start_xmit t_adapter skb);
    ndo_tx_timeout =
      (fun () ->
        let a = t_adapter in
        ignore (chip_reset a);
        hw_start a);
  }

let probe env (pci : K.Pci.dev) =
  match Hashtbl.find_opt models (K.Pci.slot pci) with
  | None -> Error (-Decaf_runtime.Errors.enodev)
  | Some model ->
      K.Pci.enable_device pci;
      K.Pci.set_master pci;
      let bar = K.Pci.bar pci 0 in
      let scope = Driver_env.scope_or env driver in
      let a =
        {
          env;
          scope;
          slot = K.Pci.slot pci;
          model;
          io_base = bar.K.Pci.base;
          irq = K.Pci.irq pci;
          ka = RO.fresh_kernel_nic ();
          netdev = None;
          cur_tx = 0;
          dirty_tx = 0;
          pkts_since_stats = 0;
          xring = None;
          lock = K.Sync.Combolock.create ~name:scope ();
        }
      in
      a.xring <-
        Driver_env.ring env ~name:scope ~guard:RO.ring_guard
          ~resolve:RO.ring_resolve ~apply:RO.apply_ring_record;
      (* Probe-time bring-up happens at user level in decaf mode. *)
      let rc =
        with_java_nic a ~name:"rtl8139_probe" (fun j ->
            let rc = chip_reset a in
            if rc <> 0 then rc
            else begin
              let mac = read_mac a in
              Codec.set j RO.msg_enable 1;
              (* register with the kernel: downcalls from user level *)
              Driver_env.downcall a.env ~name:"register_netdev" ~bytes:64
                (fun () ->
                  let nd =
                      K.Netcore.create ~name:(K.Netcore.alloc_name "eth") ~mtu:1500 (net_ops a) in
                  a.netdev <- Some nd;
                  K.Netcore.register_netdev nd;
                  ignore mac);
              Driver_env.downcall a.env ~name:"request_irq" ~bytes:16
                (fun () ->
                  K.Irq.request_irq a.irq ~name:a.scope (fun () -> interrupt a));
              0
            end)
      in
      if rc = 0 then Ok a
      else begin
        Option.iter Decaf_xpc.Ring.destroy a.xring;
        a.xring <- None;
        Error rc
      end

(* PCI unbind (per-instance rmmod, surprise removal, module unload):
   drop everything the probe acquired; remaining ring slots are dropped
   with count. *)
let unbind a =
  K.Irq.free_irq a.irq;
  Option.iter Decaf_xpc.Ring.destroy a.xring;
  a.xring <- None;
  RO.release a.env a.ka;
  match a.netdev with Some nd -> K.Netcore.unregister_netdev nd | None -> ()

include Pci_family.Make (struct
  type nonrec adapter = adapter

  let name = driver
  let ids = [ (vendor_id, device_id) ]
  let scope a = a.scope
  let slot a = a.slot
  let probe = probe
  let unbind = unbind

  let quiesce a =
    match a.netdev with
    | Some nd when K.Netcore.is_up nd -> ignore (K.Netcore.stop_dev nd)
    | Some _ | None -> ()

  let unloaded () = ()
end)

let () = K.Boot.on_reset @@ fun () -> Hashtbl.reset models

(* --- power management: suspend/resume at user level --- *)

let suspend t =
  let a = t.adapter in
  with_java_nic a ~name:"rtl8139_suspend" (fun _j ->
      (* quiesce the chip: no rx/tx while the bus powers down *)
      outb a R.cmd 0;
      Driver_env.downcall a.env ~name:"netif_stop_queue" ~bytes:16 (fun () ->
          match a.netdev with
          | Some nd when K.Netcore.is_up nd ->
              K.Netcore.netif_stop_queue nd;
              K.Netcore.netif_carrier_off nd
          | Some _ | None -> ()))

let resume t =
  let a = t.adapter in
  (* full-image resync: the user view went stale across the suspend *)
  RO.resync_user_view a.ka;
  with_java_nic a ~name:"rtl8139_resume" (fun _j ->
      match a.netdev with
      | Some nd when K.Netcore.is_up nd ->
          let rc = chip_reset a in
          if rc <> 0 then
            Decaf_runtime.Errors.throw ~driver:a.scope ~errno:(-rc)
              "resume chip reset";
          hw_start a;
          Driver_env.downcall a.env ~name:"netif_start_queue" ~bytes:16
            (fun () ->
              K.Netcore.netif_wake_queue nd;
              K.Netcore.netif_carrier_on nd)
      | Some _ | None -> ())

let netdev t =
  match t.adapter.netdev with
  | Some nd -> nd
  | None -> K.Panic.bug "8139too: no netdev"

let kernel_nic t = t.adapter.ka

module Core = struct
  type nonrec t = t

  let name = driver
  let bus = K.Hotplug.Pci
  let ids = [ (vendor_id, device_id) ]
  let probe env ~dev = insmod ?dev env
  let remove = rmmod
  let suspend = suspend
  let resume = resume

  let owns t slot =
    match Hashtbl.find_opt models slot with
    | Some m -> m == t.adapter.model
    | None -> false

  let init_latency_ns = init_latency_ns
end
