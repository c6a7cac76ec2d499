type event = Rel of int * int | Key of int * bool | Sync_report

type t = {
  name : string;
  mutable handler : (event -> unit) option;
  mutable events : int;
}

let registry : t list ref = ref []
let create ~name = { name; handler = None; events = 0 }

let register d =
  if List.exists (fun o -> o.name = d.name) !registry then
    Panic.bug "input: device %s already registered" d.name;
  registry := d :: !registry;
  Hotplug.publish
    (Hotplug.Device_added
       { bus = Hotplug.Input; id = d.name; vendor = 0; device = 0 })

let unregister d =
  registry := List.filter (fun o -> o != d) !registry;
  Hotplug.publish (Hotplug.Device_removed { bus = Hotplug.Input; id = d.name })
let name d = d.name
let set_handler d f = d.handler <- Some f

let input_event = Latency.path "input.event"

let emit d ev =
  d.events <- d.events + 1;
  (match d.handler with Some f -> f ev | None -> ());
  (* A sync closes one device-side input event (the hw model stamps the
     birth when the user motion reaches the device); no-op when nothing
     was stamped. *)
  match ev with
  | Sync_report -> ignore (Clock.track_end input_event)
  | Rel _ | Key _ -> ()

let report_rel d ~dx ~dy = emit d (Rel (dx, dy))
let report_key d ~code ~pressed = emit d (Key (code, pressed))
let sync d = emit d Sync_report
let events_reported d = d.events
let reset () = registry := []
