type bus = Pci | Usb | Input

type event =
  | Device_added of { bus : bus; id : string; vendor : int; device : int }
  | Device_removed of { bus : bus; id : string }

let bus_name = function Pci -> "pci" | Usb -> "usb" | Input -> "input"

let subscribers : (event -> unit) list ref = ref []

let subscribe f = subscribers := !subscribers @ [ f ]

let publish ev =
  (match ev with
  | Device_added { bus; id; vendor; device } ->
      Klog.printk Klog.Info "hotplug: %s %s added (%04x:%04x)" (bus_name bus)
        id vendor device
  | Device_removed { bus; id } ->
      Klog.printk Klog.Info "hotplug: %s %s removed" (bus_name bus) id);
  List.iter (fun f -> f ev) !subscribers

let reset () = subscribers := []
