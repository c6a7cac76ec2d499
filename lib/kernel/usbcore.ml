type direction = Dir_in | Dir_out
type transfer = Control | Bulk | Interrupt

type urb = {
  transfer : transfer;
  direction : direction;
  endpoint : int;
  buffer : Bytes.t;
  mutable actual_length : int;
  mutable status : int;
  mutable complete : urb -> unit;
}

type hcd_ops = {
  hcd_submit_urb : urb -> (unit, int) result;
  hcd_frame_number : unit -> int;
}

let hcd : (string * hcd_ops) option ref = ref None

let alloc_urb ~transfer ~direction ~endpoint buffer =
  {
    transfer;
    direction;
    endpoint;
    buffer;
    actual_length = 0;
    status = 0;
    complete = ignore;
  }

let register_hcd ~name ops =
  match !hcd with
  | Some (existing, _) ->
      Panic.bug "usb: HCD %s already registered (adding %s)" existing name
  | None ->
      hcd := Some (name, ops);
      Klog.printk Klog.Info "usb: HCD %s registered" name;
      Hotplug.publish
        (Hotplug.Device_added
           { bus = Hotplug.Usb; id = name; vendor = 0; device = 0 })

let unregister_hcd () =
  (match !hcd with
  | Some (name, _) ->
      Hotplug.publish (Hotplug.Device_removed { bus = Hotplug.Usb; id = name })
  | None -> ());
  hcd := None

let require_hcd () =
  match !hcd with
  | Some (_, ops) -> ops
  | None -> Panic.bug "usb: no host controller registered"

let submit_urb urb = (require_hcd ()).hcd_submit_urb urb

let bulk_msg ~direction ~endpoint buffer =
  Sched.assert_may_block "usb_bulk_msg";
  let urb = alloc_urb ~transfer:Bulk ~direction ~endpoint buffer in
  let done_ = Sync.Completion.create () in
  urb.complete <- (fun _ -> Sync.Completion.complete done_);
  match submit_urb urb with
  | Error e -> Error e
  | Ok () ->
      Sync.Completion.wait done_;
      if urb.status = 0 then Ok urb.actual_length else Error urb.status

let frame_number () = (require_hcd ()).hcd_frame_number ()
let reset () = hcd := None
