module K = Decaf_kernel
module Hw = Decaf_hw
module E = Hw.E1000_hw
module O = E1000_objects
module Codec = Decaf_xpc.Codec
module Errors = Decaf_runtime.Errors
module Runtime = Decaf_runtime.Runtime

let vendor_id = 0x8086

(* The id table of the 2.6.18 e1000 driver: ~50 chipsets. *)
let device_ids =
  [
    0x1000; 0x1001; 0x1004; 0x1008; 0x1009; 0x100c; 0x100d; 0x100e; 0x100f;
    0x1010; 0x1011; 0x1012; 0x1013; 0x1014; 0x1015; 0x1016; 0x1017; 0x1018;
    0x1019; 0x101a; 0x101d; 0x101e; 0x1026; 0x1027; 0x1028; 0x105e; 0x105f;
    0x1060; 0x1075; 0x1076; 0x1077; 0x1078; 0x1079; 0x107a; 0x107b; 0x107c;
    0x107d; 0x107e; 0x107f; 0x108a; 0x1099; 0x10a4; 0x10a5; 0x10b5; 0x10b9;
    0x10ba; 0x10bb; 0x10bc; 0x10c4; 0x10c5;
  ]

let adapter_wire_bytes = O.wire_size
let driver = "e1000"
let watchdog_period_ns = 2_000_000_000

(* Module parameters, as given on the insmod command line; validated at
   probe time by the checker classes of the decaf runtime (the paper's
   e1000_param.c rewrite, section 5.1). *)
let param_tx_descriptors = ref 256
let param_interrupt_throttle = ref 3
let param_smart_power_down = ref 0

let set_module_params ?tx_descriptors ?interrupt_throttle ?smart_power_down ()
    =
  Option.iter (fun v -> param_tx_descriptors := v) tx_descriptors;
  Option.iter (fun v -> param_interrupt_throttle := v) interrupt_throttle;
  Option.iter (fun v -> param_smart_power_down := v) smart_power_down

let reset_module_params () =
  param_tx_descriptors := 256;
  param_interrupt_throttle := 3;
  param_smart_power_down := 0

(* checked values after the last probe *)
let checked_params : (string * Decaf_runtime.Params.outcome) list ref = ref []

(* The checkers hold no per-probe state, so they are built once. *)
let tx_descriptors_checker =
  new Decaf_runtime.Params.range_checker
    ~name:"TxDescriptors" ~default:256 ~min:80 ~max:4096

let interrupt_throttle_checker =
  new Decaf_runtime.Params.set_checker
    ~name:"InterruptThrottleRate" ~default:3
    ~allowed:[ 0; 1; 3; 4000; 8000; 10000 ]

let smart_power_down_checker =
  new Decaf_runtime.Params.flag_checker
    ~name:"SmartPowerDownEnable" ~default:0

let check_options () =
  checked_params :=
    Decaf_runtime.Params.check_all
      [
        (tx_descriptors_checker, !param_tx_descriptors);
        (interrupt_throttle_checker, !param_interrupt_throttle);
        (smart_power_down_checker, !param_smart_power_down);
      ];
  !checked_params

(* Per-instance parameter snapshot (satellite of the fleet work): the
   module-level refs above model the insmod command line and are still
   reset between loads, but each binding captures its own validated
   copy at probe time, so two NICs probed with different params never
   share a ref cell. *)
type params = {
  p_tx_descriptors : int;
  p_interrupt_throttle : int;
  p_smart_power_down : int;
}

let default_params =
  { p_tx_descriptors = 256; p_interrupt_throttle = 3; p_smart_power_down = 0 }

let snapshot_params outcomes =
  let v name default =
    match List.assoc_opt name outcomes with
    | Some o -> o.Decaf_runtime.Params.value
    | None -> default
  in
  {
    p_tx_descriptors = v "TxDescriptors" 256;
    p_interrupt_throttle = v "InterruptThrottleRate" 3;
    p_smart_power_down = v "SmartPowerDownEnable" 0;
  }

let models : (string, E.t) Hashtbl.t = Hashtbl.create 4

let setup_device ~slot ~mmio_base ~irq ?(device_id = 0x100e) ~mac ~link () =
  let model = E.create ~mmio_base ~irq ~device_id ~mac ~link in
  Hashtbl.replace models slot model;
  K.Pci.add_device
    (K.Pci.make_dev ~slot ~vendor:vendor_id ~device:device_id ~irq_line:irq
       ~bars:[ { K.Pci.kind = K.Pci.Mmio_bar; base = mmio_base; len = 0x20000 } ]
       ());
  model

type resources = {
  mutable tx_alloc : K.Dma.mapping option;
  mutable rx_alloc : K.Dma.mapping option;
}

type adapter = {
  env : Driver_env.t;
      (** the binding's env: its scope names the ring and the lock *)
  model : E.t;
  pci : K.Pci.dev;
  mmio : int;
  irq : int;
  ka : O.kernel_adapter;
  resources : resources;
  mutable netdev : K.Netcore.t option;
  mutable tx_tail : int;
  mutable tx_in_flight : int;
  mutable watchdog : K.Timer.t option;
  mutable watchdog_runs : int;
  mutable pkts_since_stats : int;
  mutable params : params;  (** validated snapshot from this probe *)
  mutable itr_reg : int;  (** last value programmed into ITR *)
  mutable xring : Decaf_xpc.Ring.t option;
      (** shared-ring XPC fast path for stats/link records *)
  lock : K.Sync.Combolock.t;
}

let reg a off = a.mmio + off

(* --- plan-driven XPC with real XDR marshaling --- *)

(* Run [f] on the user-level view of the adapter (one upcall in decaf
   mode), and post a non-urgent kernel->user refresh (stats rollups,
   link state) to Batch; see {!Shared_struct.S.with_view}. *)
let with_java_adapter a ~name f = O.with_view a.env a.ka ~name f

let post_adapter_sync a ~name = O.post_sync a.env a.ka ~name

(* The kernel nucleus refreshes the user-level stats view once per
   [stats_notify_interval] data-path packets — often enough for user
   tooling, rare enough that the data path is not crossing-bound. The
   gigabit E1000 uses a longer interval than the 8139too so that even
   the unbatched baseline stays within a couple of CPU points of the
   native build at wire speed. *)
let stats_notify_interval = 256

(* Ring fast path availability: probe allocated a ring (none in
   native), the axis is on, and the user-level view exists — a freshly
   restarted runtime must get a full-image crossing first, not slot
   updates against an object it no longer holds. *)
let ring_of a =
  match a.xring with
  | Some _ as r when Decaf_xpc.Ring.enabled () && O.user_has_view a.ka -> r
  | Some _ | None -> None

let note_packets a n =
  if n > 0 then begin
    a.pkts_since_stats <- a.pkts_since_stats + n;
    if a.pkts_since_stats >= stats_notify_interval then begin
      a.pkts_since_stats <- 0;
      match ring_of a with
      | Some ring ->
          (* slot write instead of a deferred marshal; an overflow drop
             marks the field dirty so the delta path repairs it on the
             next sync (the watchdog upcall bounds the staleness) *)
          let r = O.ring_stats_record a.ka in
          if not (Decaf_xpc.Ring.produce ring r) then
            O.ring_undeliverable a.ka r
      | None ->
          let fields = a.ka.O.fields in
          Codec.set fields O.stats_gen (Codec.get fields O.stats_gen + 1);
          post_adapter_sync a ~name:"e1000_stats"
    end
  end

(* --- driver nucleus: data path --- *)

let clean_tx a =
  (* descriptors up to the hardware head are done *)
  let tdh = K.Io.readl (reg a E.reg_tdh) in
  let before = a.tx_in_flight in
  a.tx_in_flight <- (a.tx_tail - tdh + E.n_tx_desc) mod E.n_tx_desc;
  (if a.tx_in_flight < E.n_tx_desc - 1 then
     match a.netdev with
     | Some nd ->
         if K.Netcore.netif_queue_stopped nd then K.Netcore.netif_wake_queue nd
     | None -> ());
  let retired = Int.max 0 (before - a.tx_in_flight) in
  note_packets a retired;
  retired

let xmit_locked a (skb : K.Netcore.Skb.t) =
  (* lazy TX reclaim, as the real driver does in hard_start_xmit: when
     the ring runs low, retire completed descriptors here instead of
     waiting for a (possibly throttled) TXDW interrupt, so forward
     progress never depends on interrupt latency *)
  if a.tx_in_flight >= E.n_tx_desc - (E.n_tx_desc / 4) then ignore (clean_tx a);
  if a.tx_in_flight >= E.n_tx_desc - 1 then K.Netcore.Xmit_busy
  else begin
    (* the device reads the frame out of the skb's own buffer (DMA) *)
    E.stage_tx a.model skb.K.Netcore.Skb.data;
    a.tx_tail <- (a.tx_tail + 1) mod E.n_tx_desc;
    a.tx_in_flight <- a.tx_in_flight + 1;
    K.Io.writel (reg a E.reg_tdt) a.tx_tail;
    (match a.netdev with
    | Some nd ->
        let st = K.Netcore.stats nd in
        st.K.Netcore.tx_packets <- st.K.Netcore.tx_packets + 1;
        st.K.Netcore.tx_bytes <- st.K.Netcore.tx_bytes + skb.K.Netcore.Skb.len;
        if a.tx_in_flight >= E.n_tx_desc - 1 then K.Netcore.netif_stop_queue nd
    | None -> ());
    K.Netcore.Xmit_ok
  end

(* [Combolock.with_kernel] without its closure: one per frame adds up. *)
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
  let ring = E.rx_ring a.model in
  let received = ref 0 in
  while not (Hw.Frameq.is_empty ring) do
    let frame = Hw.Frameq.head ring and born = Hw.Frameq.head_stamp ring in
    Hw.Frameq.drop ring;
    (* per-packet receive processing, inside the net.rx span (born at
       DMA) *)
    K.Clock.consume 800;
    (match a.netdev with
    | Some nd -> K.Netcore.netif_rx nd (K.Netcore.Skb.of_bytes frame)
    | None -> ());
    (* packet delivered: close the wire-arrival timeline *)
    K.Clock.complete_since net_rx born;
    incr received;
    (* return the buffer to the device: advance the rx tail *)
    let rdt = K.Io.readl (reg a E.reg_rdt) in
    K.Io.writel (reg a E.reg_rdt) ((rdt + 1) mod E.n_rx_desc)
  done;
  note_packets a !received;
  !received

(* Driver-side dynamic interrupt throttling (InterruptThrottleRate 1/3):
   feedback on events retired per interrupt. With immediate delivery an
   interrupt retires at most a frame or two, so [work] only climbs when
   causes pile up while the CPU is busy elsewhere — exactly the
   interrupt-bound fleet case. A loaded instance therefore widens its
   ITR window toward the 2 ms ceiling (where each interrupt retires a
   large batch and keeps it wide), while a single NIC at wire rate
   retires ~1 frame per interrupt and stays unthrottled, so the
   latency-sensitive paths (link tests, sparse traffic) are unchanged.
   Bounds: the 2 ms ceiling stays under the ~3.1 ms the 256-slot rings
   buffer at wire rate; writes hit ITR only on change, so the MMIO cost
   is paid at transitions, not per interrupt. *)
let itr_floor = 78 (* ~20 us in 256 ns units *)
let itr_ceiling = 7812 (* ~2 ms *)

let adjust_itr a ~data work =
  match a.params.p_interrupt_throttle with
  | 1 | 3 ->
      let cur = a.itr_reg in
      let next =
        if work >= 4 then
          (* ratchet, don't track: halving back on every light interrupt
             makes the window oscillate around the load point and the
             fleet stays interrupt-bound. [work] can read zero on a data
             interrupt whose descriptors the lazy reclaim in start_xmit
             already harvested, so only a status-only interrupt — no
             TX/RX cause at all, the line is idle and latency matters —
             drops the window back to unthrottled. *)
          if cur = 0 then itr_floor else Int.min (cur * 2) itr_ceiling
        else if not data then 0
        else cur
      in
      if next <> cur then begin
        a.itr_reg <- next;
        K.Io.writel (reg a E.reg_itr) next
      end
  | _ -> ()

let interrupt a =
  let icr = K.Io.readl (reg a E.reg_icr) in
  if icr <> 0 then begin
    let work = ref 0 in
    if icr land E.icr_txdw <> 0 then work := !work + clean_tx a;
    if icr land E.icr_rxt0 <> 0 then work := !work + handle_rx a;
    adjust_itr a ~data:(icr land (E.icr_txdw lor E.icr_rxt0) <> 0) !work;
    if icr land E.icr_lsc <> 0 then begin
      let up = Hw.Phy.link_up (E.phy a.model) in
      if up <> Codec.get a.ka.O.fields O.link_up then
        match ring_of a with
        | Some ring ->
            let r = O.ring_link_record a.ka up in
            if not (Decaf_xpc.Ring.produce ring r) then begin
              (* link transitions are too important to wait for the
                 watchdog: mark and post the delta sync right away *)
              O.ring_undeliverable a.ka r;
              post_adapter_sync a ~name:"e1000_link_state"
            end
        | None ->
            Codec.set a.ka.O.fields O.link_up up;
            post_adapter_sync a ~name:"e1000_link_state"
    end
  end

(* --- decaf driver: user-level logic, exception-based (§5.1) --- *)

let rd32 a off = Driver_env.readl a.env (reg a off)
let wr32 a off v = Driver_env.writel a.env (reg a off) v

let throw errno context = Errors.throw ~driver ~errno context

let reset_hw a =
  wr32 a E.reg_ctrl E.ctrl_rst;
  (* after reset the device comes back with registers cleared *)
  wr32 a E.reg_ctrl E.ctrl_slu

let eeprom_handshake a addr =
  wr32 a E.reg_eerd ((addr lsl 8) lor E.eerd_start);
  let v = rd32 a E.reg_eerd in
  if v land E.eerd_done = 0 then throw Errors.eio "EEPROM read timeout";
  (v lsr 16) land 0xffff

(* EEPROM reads occasionally miss the done bit on real parts; retry the
   handshake with backoff before giving up on the whole probe. *)
let read_eeprom_word a addr =
  Errors.with_retry ~attempts:3 ~backoff_ns:50_000 eeprom_handshake a addr

(* Validate the EEPROM: the sum of all 64 words must be 0xBABA. *)
let validate_eeprom a =
  let sum = ref 0 in
  for w = 0 to 63 do
    sum := (!sum + read_eeprom_word a w) land 0xffff
  done;
  if !sum <> 0xbaba then throw Errors.eio "EEPROM checksum invalid"

let read_mac_from_eeprom a =
  String.init 6 (fun i ->
      let w = read_eeprom_word a (i / 2) in
      Char.chr (if i mod 2 = 0 then w land 0xff else (w lsr 8) land 0xff))

let phy_read a phy_reg =
  wr32 a E.reg_mdic ((phy_reg lsl 16) lor E.mdic_op_read);
  let v = rd32 a E.reg_mdic in
  if v land E.mdic_ready = 0 then throw Errors.eio "MDIC not ready";
  v land 0xffff

let phy_setup a =
  (* restart autonegotiation and wait for it to complete *)
  wr32 a E.reg_mdic ((0 lsl 16) lor E.mdic_op_write lor 0x1200);
  let tries = ref 0 in
  while phy_read a 1 land 0x0020 = 0 && !tries < 100 do
    incr tries;
    Runtime.Helpers.msleep 10
  done;
  if !tries >= 100 then throw Errors.etimedout "link autonegotiation"

(* Save PCI config space into the adapter (Figure 3's config_space
   array); each dword is a downcall to the kernel's PCI services. *)
let save_config_space a j =
  for i = 0 to O.config_words - 1 do
    Codec.set_word j O.config_space i
      (Driver_env.downcall a.env ~name:"pci_read_config" ~bytes:8 (fun () ->
           K.Pci.read_config32 a.pci (4 * i)))
  done

(* --- resource management with nested cleanup (Figure 4) --- *)

let setup_tx_resources a =
  let mapping =
    Driver_env.downcall a.env ~name:"dma_alloc_tx" ~bytes:16 (fun () ->
        K.Dma.alloc_coherent ~tag:"e1000-txring" (E.n_tx_desc * 16))
  in
  match mapping with
  | Some mapping ->
      a.resources.tx_alloc <- Some mapping;
      (* program the ring base the device will fetch from *)
      a.ka.O.k_tx.O.count <- E.n_tx_desc;
      wr32 a 0x3800 (* TDBAL *) (K.Dma.bus_addr mapping)
  | None -> throw Errors.enomem "tx descriptor ring"

let setup_rx_resources a =
  let mapping =
    Driver_env.downcall a.env ~name:"dma_alloc_rx" ~bytes:16 (fun () ->
        K.Dma.alloc_coherent ~tag:"e1000-rxring" (E.n_rx_desc * 16))
  in
  match mapping with
  | Some mapping ->
      a.resources.rx_alloc <- Some mapping;
      a.ka.O.k_rx.O.count <- E.n_rx_desc;
      wr32 a 0x2800 (* RDBAL *) (K.Dma.bus_addr mapping)
  | None -> throw Errors.enomem "rx descriptor ring"

let free_tx_resources a =
  match a.resources.tx_alloc with
  | Some mapping ->
      Driver_env.downcall a.env ~name:"dma_free_tx" ~bytes:16 (fun () ->
          K.Dma.free_coherent mapping);
      a.resources.tx_alloc <- None
  | None -> ()

let free_rx_resources a =
  match a.resources.rx_alloc with
  | Some mapping ->
      Driver_env.downcall a.env ~name:"dma_free_rx" ~bytes:16 (fun () ->
          K.Dma.free_coherent mapping);
      a.resources.rx_alloc <- None
  | None -> ()

let request_irq a =
  Driver_env.downcall a.env ~name:"request_irq" ~bytes:16 (fun () ->
      K.Irq.request_irq a.irq ~name:driver (fun () -> interrupt a))

(* Initial ITR from InterruptThrottleRate: 0 = off; 1/3 = dynamic
   (start unthrottled, adapt_itr widens under load); a literal rate
   becomes its fixed inter-interrupt interval. *)
let initial_itr p =
  match p.p_interrupt_throttle with
  | 0 | 1 | 3 -> 0
  | rate -> 1_000_000_000 / rate / 256

let e1000_up a =
  wr32 a E.reg_tctl E.tctl_en;
  wr32 a E.reg_rctl E.rctl_en;
  a.itr_reg <- initial_itr a.params;
  wr32 a E.reg_itr a.itr_reg;
  wr32 a E.reg_ims (E.icr_txdw lor E.icr_rxt0 lor E.icr_lsc);
  Driver_env.downcall a.env ~name:"netif_start" ~bytes:16 (fun () ->
      match a.netdev with
      | Some nd ->
          K.Netcore.netif_wake_queue nd;
          K.Netcore.netif_carrier_on nd
      | None -> ())

let e1000_down a =
  wr32 a E.reg_imc 0xffff_ffff;
  wr32 a E.reg_tctl 0;
  wr32 a E.reg_rctl 0;
  Driver_env.downcall a.env ~name:"netif_stop" ~bytes:16 (fun () ->
      match a.netdev with
      | Some nd ->
          K.Netcore.netif_stop_queue nd;
          K.Netcore.netif_carrier_off nd
      | None -> ())

(* The paper's Figure 4: nested handlers so each failure unwinds exactly
   the resources acquired before it. *)
let e1000_open_user a j =
  setup_tx_resources a;
  Errors.protect ~cleanup:(fun () -> free_tx_resources a) (fun () ->
      setup_rx_resources a;
      Errors.protect ~cleanup:(fun () -> free_rx_resources a) (fun () ->
          request_irq a;
          Errors.protect
            ~cleanup:(fun () ->
              Driver_env.downcall a.env ~name:"free_irq" ~bytes:16 (fun () ->
                  K.Irq.free_irq a.irq))
            (fun () ->
              phy_setup a;
              e1000_up a;
              Codec.set j O.link_up true;
              Codec.set j O.flags (Codec.get j O.flags lor 1))))

let e1000_close_user a j =
  e1000_down a;
  Driver_env.downcall a.env ~name:"free_irq" ~bytes:16 (fun () ->
      K.Irq.free_irq a.irq);
  free_rx_resources a;
  free_tx_resources a;
  Codec.set j O.flags (Codec.get j O.flags land lnot 1)

(* Watchdog: runs every two seconds in the decaf driver (§3.1.3). *)
let watchdog_task a () =
  ignore
    (with_java_adapter a ~name:"e1000_watchdog" (fun j ->
         let status = rd32 a E.reg_status in
         Codec.set j O.link_up (status land E.status_lu <> 0);
         Codec.set j O.watchdog_events (Codec.get j O.watchdog_events + 1)));
  a.watchdog_runs <- a.watchdog_runs + 1

let arm_watchdog a =
  let timer =
    K.Timer.create ~name:"e1000-watchdog" (fun () ->
        (* timers run at high priority: defer so the work may block and
           therefore may cross to the decaf driver *)
        Decaf_runtime.Runtime.Nuclear.defer (watchdog_task a);
        match a.watchdog with
        | Some t -> K.Timer.mod_timer_in t watchdog_period_ns
        | None -> ())
  in
  a.watchdog <- Some timer;
  K.Timer.mod_timer_in timer watchdog_period_ns

let disarm_watchdog a =
  match a.watchdog with
  | Some t ->
      ignore (K.Timer.del_timer t);
      a.watchdog <- None
  | None -> ()

(* --- ethtool diagnostics: the functions that cannot move (§5) ---

   The interrupt-test waits for the interrupt handler to flip a flag in
   the adapter. The handler runs in the kernel and updates the KERNEL
   copy; a decaf-driver implementation polls its own marshaled copy,
   which nothing ever updates — the explicit data race that kept four
   ethtool functions in the driver nucleus. *)

let diag_test_adapter a =
  (* nucleus implementation: shares the kernel adapter with the irq
     handler, so the flag flip is visible *)
  Codec.set a.ka.O.fields O.link_up false;
  (* unmask and have the device raise a link-status-change interrupt *)
  K.Io.writel (reg a E.reg_ims) E.icr_lsc;
  K.Io.writel (reg a E.reg_ics) E.icr_lsc;
  let deadline = K.Clock.now () + 100_000_000 in
  let rec poll () =
    if Codec.get a.ka.O.fields O.link_up then 0
    else if K.Clock.now () >= deadline then -Errors.etimedout
    else begin
      K.Sched.sleep_ns 1_000_000;
      poll ()
    end
  in
  poll ()

let diag_test_at_user_level_adapter a =
  (* the WRONG implementation: runs in the decaf driver against the
     marshaled copy of the adapter. The interrupt handler changes the
     kernel object; this copy stays stale and the wait times out. *)
  Codec.set a.ka.O.fields O.link_up false;
  with_java_adapter a ~name:"e1000_diag_test_wrong" (fun j ->
      K.Io.writel (reg a E.reg_ims) E.icr_lsc;
      K.Io.writel (reg a E.reg_ics) E.icr_lsc;
      let deadline = K.Clock.now () + 50_000_000 in
      let rec poll () =
        if Codec.get j O.link_up then 0
        else if K.Clock.now () >= deadline then -Errors.etimedout
        else begin
          Runtime.Helpers.msleep 1;
          poll ()
        end
      in
      poll ())

(* --- net_device ops --- *)

let net_ops a =
  {
    K.Netcore.ndo_open =
      (fun () ->
        let rc =
          with_java_adapter a ~name:"e1000_open" (fun j ->
              Errors.to_errno (fun () -> e1000_open_user a j))
        in
        if rc = 0 then begin
          arm_watchdog a;
          Ok ()
        end
        else Error rc);
    ndo_stop =
      (fun () ->
        disarm_watchdog a;
        Decaf_runtime.Runtime.Nuclear.flush ();
        (* deliver outstanding deferred notifications and ring slots
           before the close sync, so no deferred call outlives its
           device *)
        Decaf_xpc.Batch.drain ();
        Option.iter Decaf_xpc.Ring.drain a.xring;
        with_java_adapter a ~name:"e1000_close" (fun j ->
            e1000_close_user a j);
        Ok ());
    ndo_start_xmit = (fun skb -> start_xmit a skb);
    ndo_tx_timeout = (fun () -> ignore (clean_tx a));
  }

(* --- probe / remove --- *)

let probe env (pci : K.Pci.dev) =
  match Hashtbl.find_opt models (K.Pci.slot pci) with
  | None -> Error (-Errors.enodev)
  | Some model ->
      K.Pci.enable_device pci;
      K.Pci.set_master pci;
      let scope = env.Driver_env.scope in
      let bar = K.Pci.bar pci 0 in
      let a =
        {
          env;
          model;
          pci;
          mmio = bar.K.Pci.base;
          irq = K.Pci.irq pci;
          ka = O.fresh_kernel_adapter ();
          resources = { tx_alloc = None; rx_alloc = None };
          netdev = None;
          tx_tail = 0;
          tx_in_flight = 0;
          watchdog = None;
          watchdog_runs = 0;
          pkts_since_stats = 0;
          params = default_params;
          itr_reg = 0;
          xring = None;
          lock = K.Sync.Combolock.create ~name:scope ();
        }
      in
      (* the shared ring exists for the life of the binding *)
      a.xring <-
        Driver_env.ring env ~name:scope ~guard:O.ring_guard
          ~resolve:O.ring_resolve ~apply:O.apply_ring_record;
      Runtime.Helpers.register_sizeof "e1000_adapter" 512;
      let rc =
        with_java_adapter a ~name:"e1000_probe" (fun j ->
            Errors.to_errno (fun () ->
                a.params <- snapshot_params (check_options ());
                reset_hw a;
                validate_eeprom a;
                let mac = read_mac_from_eeprom a in
                ignore mac;
                save_config_space a j;
                Codec.set j O.msg_enable 7;
                Driver_env.downcall a.env ~name:"register_netdev" ~bytes:64
                  (fun () ->
                    let nd =
                      K.Netcore.create ~name:(K.Netcore.alloc_name "eth") ~mtu:1500 (net_ops a) in
                    a.netdev <- Some nd;
                    K.Netcore.register_netdev nd)))
      in
      if rc = 0 then Ok a
      else begin
        Option.iter Decaf_xpc.Ring.destroy a.xring;
        a.xring <- None;
        Error rc
      end

(* PCI unbind (per-instance rmmod, surprise removal, module unload):
   whatever is still in the ring is dropped with count, never drained
   into a dead binding. *)
let unbind a =
  disarm_watchdog a;
  Option.iter Decaf_xpc.Ring.destroy a.xring;
  a.xring <- None;
  free_rx_resources a;
  free_tx_resources a;
  O.release a.env a.ka;
  match a.netdev with Some nd -> K.Netcore.unregister_netdev nd | None -> ()

(* --- power management (§3.1.3: suspend/resume run in the decaf
   driver, like any other non-critical path) --- *)

let suspend a =
  disarm_watchdog a;
  Decaf_runtime.Runtime.Nuclear.flush ();
  with_java_adapter a ~name:"e1000_suspend" (fun j ->
      e1000_down a;
      (* snapshot config space so resume can reprogram the function
         even if the bus power-cycled it *)
      save_config_space a j)

let resume a =
  (* the user-level view may be arbitrarily stale (deltas were flushed
     at suspend, nothing synced since): re-mark every copy-in field so
     the resume crossing carries a full image *)
  O.resync_user_view a.ka;
  with_java_adapter a ~name:"e1000_resume" (fun j ->
      for i = 0 to O.config_words - 1 do
        Driver_env.downcall a.env ~name:"pci_write_config" ~bytes:8 (fun () ->
            K.Pci.write_config32 a.pci (4 * i) (Codec.get j O.config_space).(i))
      done;
      match a.netdev with
      | Some nd when K.Netcore.is_up nd -> e1000_up a
      | Some _ | None -> ());
  match a.netdev with
  | Some nd when K.Netcore.is_up nd -> arm_watchdog a
  | Some _ | None -> ()

let ids = List.map (fun id -> (vendor_id, id)) device_ids

include Pci_family.Make (struct
  type nonrec adapter = adapter

  let name = driver
  let ids = ids
  let slot a = K.Pci.slot a.pci
  let probe = probe
  let unbind = unbind

  let quiesce a =
    match a.netdev with
    | Some nd when K.Netcore.is_up nd -> ignore (K.Netcore.stop_dev nd)
    | Some _ | None -> ()

  (* module parameters are insmod arguments: they must not survive the
     module. A later insmod with no explicit params gets the defaults,
     not whatever the previous load was given. *)
  let unloaded = reset_module_params
  let suspend = suspend
  let resume = resume
end)

(* Power-on state: no device model or insmod argument outlives the
   machine it was made on. *)
let () =
  K.Boot.on_reset @@ fun () ->
  Hashtbl.reset models;
  checked_params := [];
  reset_module_params ()

let netdev t =
  match t.adapter.netdev with
  | Some nd -> nd
  | None -> K.Panic.bug "e1000: no netdev"

let diag_test t = diag_test_adapter t.adapter
let diag_test_at_user_level t = diag_test_at_user_level_adapter t.adapter
let watchdog_runs t = t.adapter.watchdog_runs
let kernel_adapter t = t.adapter.ka
let params t = t.adapter.params

(* Fleet access: a binding made through the registry has no [t] in the
   caller's hands; the netdev is looked up by the PCI slot it claimed. *)
let netdev_at ~slot = Option.bind (at ~slot) (fun t -> t.adapter.netdev)
