(* The evaluation machine: where each Table 3 device and each e1000
   fleet port sits, on what link, how a NIC comes up, and the short
   traffic slice each device runs. The experiments, the campaigns and
   the soak all plug their devices here, so the layout is decided once. *)

module K = Decaf_kernel
module Hw = Decaf_hw
module Errors = Decaf_runtime.Errors
open Decaf_drivers

let mac = "\x00\x1b\x21\x0a\x0b\x0c"

(* io or mmio base and irq line of each Table 3 device *)
let resources = function
  | "8139too" -> (0xc000, 10)
  | "e1000" -> (0xf000_0000, 11)
  | "ens1371" -> (0xd000, 9)
  | "uhci-hcd" -> (0xe000, 5)
  | "psmouse" -> (Hw.Psmouse_hw.data_port, Hw.Psmouse_hw.aux_irq)
  | name -> invalid_arg ("Rig: no device for " ^ name)

let base name = fst (resources name)
let irq name = snd (resources name)

(* PCI slot of each Table 3 PCI device *)
let slot = function
  | "8139too" -> "00:04.0"
  | "e1000" -> "00:05.0"
  | "ens1371" -> "00:06.0"
  | name -> invalid_arg ("Rig: no PCI device for " ^ name)

let port_slot i = Printf.sprintf "%02x:00.0" i
let port_irq i = 32 + i

(* slot, mmio base and irq of the classic e1000 or of fleet port [i] *)
let e1000_at = function
  | None -> (slot "e1000", base "e1000", irq "e1000")
  | Some i -> (port_slot i, 0xe000_0000 + (i * 0x20000), port_irq i)

let plug_e1000 ?port () =
  let slot, mmio_base, irq = e1000_at port in
  let mac =
    match port with
    | None -> mac
    | Some i ->
        Printf.sprintf "\x02\x00\x00\x00%c%c"
          (Char.chr ((i lsr 8) land 0xff))
          (Char.chr (i land 0xff))
  in
  let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
  ignore (E1000_drv.setup_device ~slot ~mmio_base ~irq ~mac ~link ());
  link

let plug_8139too () =
  let link = Hw.Link.create ~rate_bps:100_000_000 () in
  ignore
    (Rtl8139_drv.setup_device ~slot:(slot "8139too") ~io_base:(base "8139too")
       ~irq:(irq "8139too") ~mac ~link ());
  link

let plug_ens1371 () =
  Ens1371_drv.setup_device ~slot:(slot "ens1371") ~io_base:(base "ens1371")
    ~irq:(irq "ens1371") ()

let plug_uhci () =
  Uhci_drv.setup_device ~io_base:(base "uhci-hcd") ~irq:(irq "uhci-hcd") ()

let plug_psmouse = Psmouse_drv.setup_device

let ok what = function
  | Ok v -> v
  | Error rc -> Errors.throw ~driver:what ~errno:(-rc) what

let pci_dev slot = List.find_opt (fun d -> K.Pci.slot d = slot) (K.Pci.devices ())
let unplug name = Option.iter K.Pci.remove_device (pci_dev (slot name))

let replug_e1000 ?port ?(gap_ns = 0) () =
  let slot, base, irq = e1000_at port in
  match pci_dev slot with
  | None -> Errors.throw ~driver:"e1000" ~errno:Errors.enodev slot
  | Some d ->
      K.Pci.remove_device d;
      if gap_ns > 0 then K.Sched.sleep_ns gap_ns;
      K.Pci.add_device
        (K.Pci.make_dev ~slot ~vendor:E1000_drv.vendor_id ~device:0x100e
           ~irq_line:irq
           ~bars:[ { K.Pci.kind = K.Pci.Mmio_bar; base; len = 0x20000 } ]
           ())

type device =
  | Nic of Hw.Link.t
  | Sound of Hw.Ens1371_hw.t
  | Usb of Hw.Uhci_hw.t
  | Mouse of Hw.Psmouse_hw.t

type t = { name : string; device : device }

let name t = t.name

let plug name =
  let device =
    match name with
    | "8139too" -> Nic (plug_8139too ())
    | "e1000" -> Nic (plug_e1000 ())
    | "ens1371" -> Sound (plug_ens1371 ())
    | "uhci-hcd" -> Usb (plug_uhci ())
    | "psmouse" -> Mouse (plug_psmouse ())
    | _ -> invalid_arg ("Rig.plug: no device for " ^ name)
  in
  { name; device }

let not_a what t = invalid_arg (Printf.sprintf "Rig: %s is not %s" t.name what)

(* Restarts and replugs bind new instances, so every use re-fetches the
   active one. *)
let netdev t =
  match t.name with
  | "8139too" -> Rtl8139_drv.netdev (Option.get (Rtl8139_drv.active ()))
  | "e1000" -> E1000_drv.netdev (Option.get (E1000_drv.active ()))
  | _ -> not_a "a NIC" t

let up t =
  match t.device with
  | Nic _ -> ok (t.name ^ "-open") (K.Netcore.open_dev (netdev t))
  | Sound _ | Usb _ | Mouse _ -> ()

let netperf ?(recv = false) ?(msg_bytes = 1500) t ~duration_ns =
  match t.device with
  | Nic link ->
      (if recv then Netperf.recv else Netperf.send)
        ~netdev:(netdev t) ~link ~duration_ns ~msg_bytes
  | _ -> not_a "a NIC" t

let play t ~duration_ns =
  match t.device with
  | Sound model ->
      let card = Option.get (Ens1371_drv.active ()) in
      Mpg123.play ~substream:(Ens1371_drv.substream card) ~model ~duration_ns
  | _ -> not_a "a sound card" t

let untar ?(files = 1) ?(file_bytes = 4096) t =
  match t.device with
  | Usb model -> Tar_usb.untar ~model ~files ~file_bytes
  | _ -> not_a "a USB host" t

let move t ~duration_ns =
  match t.device with
  | Mouse model ->
      let mouse = Option.get (Psmouse_drv.active ()) in
      Mouse_move.run ~model ~input:(Psmouse_drv.input_dev mouse) ~duration_ns
  | _ -> not_a "a mouse" t

let slice ?duration_ns t =
  let ns default = Option.value duration_ns ~default in
  match t.device with
  | Nic _ -> ignore (netperf t ~duration_ns:(ns 2_000_000))
  | Sound _ -> ignore (play t ~duration_ns:(ns 20_000_000))
  | Usb _ -> ignore (untar t)
  | Mouse _ -> ignore (move t ~duration_ns:(ns 20_000_000))
