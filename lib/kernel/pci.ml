type bar_kind = Port_bar | Mmio_bar
type bar = { kind : bar_kind; base : int; len : int }

type dev = {
  slot : string;
  vendor : int;
  device : int;
  irq_line : int;
  bars : bar array;
  config : Bytes.t;
  mutable enabled : bool;
  mutable master : bool;
  mutable driver : string option;
}

type id = { id_vendor : int; id_device : int }

type driver = {
  name : string;
  ids : id list;
  probe : dev -> (unit, int) result;
  remove : dev -> unit;
}

(* The bus newest first, so a plug conses instead of copying the list;
   [List.rev] gives bus order, in which drivers are offered devices.
   [slots] indexes the same devices by slot. *)
let bus : dev list ref = ref []
let slots : (string, dev) Hashtbl.t = Hashtbl.create 64
let drivers : driver list ref = ref []

let set16 b off v =
  Bytes.set_uint8 b off (v land 0xff);
  Bytes.set_uint8 b (off + 1) ((v lsr 8) land 0xff)

let make_dev ~slot ~vendor ~device ~irq_line ~bars () =
  let config = Bytes.make 256 '\000' in
  set16 config 0x00 vendor;
  set16 config 0x02 device;
  Bytes.set_uint8 config 0x3c irq_line;
  let bars = Array.of_list bars in
  Array.iteri
    (fun i b ->
      let lo = b.base lor (match b.kind with Port_bar -> 1 | Mmio_bar -> 0) in
      set16 config (0x10 + (4 * i)) (lo land 0xffff);
      set16 config (0x10 + (4 * i) + 2) ((lo lsr 16) land 0xffff))
    bars;
  {
    slot;
    vendor;
    device;
    irq_line;
    bars;
    config;
    enabled = false;
    master = false;
    driver = None;
  }

let matches drv dev =
  List.exists
    (fun id -> id.id_vendor = dev.vendor && id.id_device = dev.device)
    drv.ids

let try_bind drv dev =
  if Option.is_none dev.driver && matches drv dev then
    match drv.probe dev with
    | Ok () ->
        dev.driver <- Some drv.name;
        Klog.printk Klog.Info "pci %s: bound to driver %s" dev.slot drv.name
    (* -ENODEV, -ENXIO: the driver does not support this device, a
       refusal the Linux driver core takes without a warning *)
    | Error (-19 | -6) -> ()
    | Error errno ->
        Klog.printk Klog.Warning "pci %s: probe by %s failed (errno %d)"
          dev.slot drv.name errno

let offer dev = List.iter (fun drv -> try_bind drv dev) !drivers

let add_device dev =
  if Hashtbl.mem slots dev.slot then
    Panic.bug "pci: slot %s already populated" dev.slot;
  bus := dev :: !bus;
  Hashtbl.replace slots dev.slot dev;
  offer dev;
  Hotplug.publish
    (Hotplug.Device_added
       { bus = Hotplug.Pci; id = dev.slot; vendor = dev.vendor;
         device = dev.device })

let unbind dev =
  match dev.driver with
  | Some name ->
      (match List.find_opt (fun d -> d.name = name) !drivers with
      | Some drv -> drv.remove dev
      | None -> ());
      dev.driver <- None
  | None -> ()

let remove_device dev =
  (* published before unbinding: a subscriber (the driver registry) may
     still cross to the bound driver to drain in-flight work *)
  Hotplug.publish
    (Hotplug.Device_removed { bus = Hotplug.Pci; id = dev.slot });
  unbind dev;
  bus := List.filter (fun d -> d != dev) !bus;
  match Hashtbl.find_opt slots dev.slot with
  | Some d when d == dev -> Hashtbl.remove slots dev.slot
  | _ -> ()

(* Re-offer unbound devices to every registered driver — the hook a
   driver module uses to pick up an additional device after its initial
   registration pass (multi-instance insmod). With [slot], only that
   device is offered, found through the slot index, so a fleet bind
   costs O(drivers), not O(bus). *)
let rescan ?slot () =
  match slot with
  | None -> List.iter offer (List.rev !bus)
  | Some s -> Option.iter offer (Hashtbl.find_opt slots s)

let detach ~slot = Option.iter unbind (Hashtbl.find_opt slots slot)

let register_driver ~name ~ids ~probe ~remove =
  if List.exists (fun d -> d.name = name) !drivers then
    Panic.bug "pci: driver %s already registered" name;
  let drv = { name; ids; probe; remove } in
  drivers := drv :: !drivers;
  List.iter (try_bind drv) (List.rev !bus)

let unregister_driver name =
  List.iter
    (fun dev -> if dev.driver = Some name then unbind dev)
    (List.rev !bus);
  drivers := List.filter (fun d -> d.name <> name) !drivers

let slot d = d.slot
let vendor d = d.vendor
let device_id d = d.device
let irq d = d.irq_line

let bar d i =
  if i < 0 || i >= Array.length d.bars then
    Panic.bug "pci %s: no BAR %d" d.slot i;
  d.bars.(i)

let bound_driver d = d.driver
let enable_device d = d.enabled <- true
let is_enabled d = d.enabled
let set_master d = d.master <- true

let read_config8 d off = Bytes.get_uint8 d.config off
let read_config16 d off = read_config8 d off lor (read_config8 d (off + 1) lsl 8)
let read_config32 d off = read_config16 d off lor (read_config16 d (off + 2) lsl 16)
let write_config8 d off v = Bytes.set_uint8 d.config off (v land 0xff)

let write_config16 d off v =
  write_config8 d off v;
  write_config8 d (off + 1) (v lsr 8)

let write_config32 d off v =
  write_config16 d off v;
  write_config16 d (off + 2) (v lsr 16)

let config_space_words d = Array.init 64 (fun i -> read_config32 d (4 * i))
let devices () = List.rev !bus

let reset () =
  bus := [];
  Hashtbl.reset slots;
  drivers := []
