(* Device layout shared by the workloads: e1000 ports at the addresses
   the soak uses, and the four classic devices (8139too, ens1371,
   uhci-hcd, psmouse). Every call goes through the drivers' public
   [setup_device] and is wrapped in a span. *)

module Hw = Decaf_hw
open Decaf_drivers

let decaf = Driver_env.Decaf
let e1000_slot i = Printf.sprintf "%02x:00.0" i

let e1000_mac i =
  Printf.sprintf "\x02\x00\x00\x00%c%c"
    (Char.chr ((i lsr 8) land 0xff))
    (Char.chr (i land 0xff))

(* Plug e1000 port [i] and return its link. *)
let add_e1000 i =
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  Spans.with_span "setup_device" (fun () ->
      ignore
        (E1000_drv.setup_device ~slot:(e1000_slot i)
           ~mmio_base:(0xe000_0000 + (i * 0x20000))
           ~irq:(32 + i) ~mac:(e1000_mac i) ~link ()));
  link

let classic = [ "8139too"; "ens1371"; "uhci-hcd"; "psmouse" ]

let add_classic () =
  let setup f = Spans.with_span "setup_device" (fun () -> ignore (f ())) in
  setup (fun () ->
      Rtl8139_drv.setup_device ~slot:"00:04.0" ~io_base:0xc000 ~irq:10
        ~mac:"\x00\x1b\x21\x0a\x0b\x0c"
        ~link:(Hw.Link.create ~rate_bps:100_000_000 ())
        ());
  setup (fun () ->
      Ens1371_drv.setup_device ~slot:"00:06.0" ~io_base:0xd000 ~irq:9 ());
  setup (fun () -> Uhci_drv.setup_device ~io_base:0xe000 ~irq:5 ());
  setup Psmouse_drv.setup_device

(* Self-test hook: after each successful bind, leak one tracker entry
   through the public Objtracker API, as a driver that forgets to release
   an object would. The quiescence check must catch it. *)
let leak_on_bind = ref false
let leak_key : unit Decaf_xpc.Univ.key = Decaf_xpc.Univ.new_key "perfbench_leak"

let leak () =
  Decaf_xpc.Objtracker.associate
    (Decaf_runtime.Runtime.kernel_tracker ())
    ~addr:(Decaf_xpc.Addr.alloc ~size:64)
    (Decaf_xpc.Univ.pack leak_key ())

(* Bind e1000 port [i] through the registry; the binding id on success. *)
let bind_e1000 m i =
  let id = ref None in
  ignore
    (Meter.op m "bind" (fun () ->
         match
           Driver_core.bind_device "e1000" ~dev:(e1000_slot i) ~mode:decaf ()
         with
         | Ok b ->
             id := Some b;
             if !leak_on_bind then leak ();
             true
         | Error _ -> false));
  !id

let insmod m ?(kind = "insmod") name =
  Meter.op m kind (fun () -> Meter.ok_unit (Driver_core.insmod name ~mode:decaf))

let rmmod m id =
  Meter.op m "rmmod" (fun () ->
      Driver_core.rmmod id;
      Driver_core.state id = Driver_core.Removed)

let open_dev m nd =
  Meter.op m "open" (fun () -> Meter.ok_unit (Decaf_kernel.Netcore.open_dev nd))

(* Bind e1000 ports [ports], then open them: the binding ids, and the
   ports that came up with their [links], ready for the virtual switch. *)
let bring_up m ports links =
  let ids = List.filter_map (bind_e1000 m) ports in
  let up =
    List.concat
      (List.map2
         (fun i link ->
           match E1000_drv.netdev_at ~slot:(e1000_slot i) with
           | Some nd when open_dev m nd -> [ { Decaf_workloads.Vswitch.netdev = nd; link } ]
           | _ -> [])
         ports links)
  in
  (ids, up)

let drain () = Spans.with_span "drain" Decaf_xpc.Batch.drain
