open Decaf_xpc

type mode = Native | Staged | Decaf

type t = {
  mode : mode;
  scope : string;
      (* binding id this environment belongs to; "" until the registry
         wraps the env in [Driver_core.metered], which stamps the
         binding's id so drivers attribute Boundary/Ring traffic to
         their own instance instead of the bare driver name *)
  upcall : 'a. name:string -> bytes:int -> (unit -> 'a) -> 'a;
  downcall : 'a. name:string -> bytes:int -> (unit -> 'a) -> 'a;
  notify : name:string -> bytes:int -> (unit -> unit) -> unit;
}

let scope_or env default = if env.scope = "" then default else env.scope

(* Calls that only read state and may safely be re-issued when a crossing
   times out. Everything else fails fast so the supervisor decides. The
   answer is [Channel.call]'s own optional argument: a literal [Some
   true] is a constant, so passing it allocates nothing. *)
let idempotent = function
  | "pci_read_config" | "serio_status" | "usb_get_device_descriptor"
  | "usb_get_device_descriptor_full" | "usb_get_config_descriptor"
  | "usb_get_string_manufacturer" | "usb_get_string_product" ->
      Some true
  | _ -> None

let call target ~name ~bytes f =
  Channel.call ~target ~payload_bytes:bytes ~reply_bytes:0
    ?idempotent:(idempotent name) ~context:name f

let native =
  {
    mode = Native;
    scope = "";
    upcall = (fun ~name:_ ~bytes:_ f -> f ());
    downcall = (fun ~name:_ ~bytes:_ f -> f ());
    notify = (fun ~name:_ ~bytes:_ f -> f ());
  }

let staged =
  {
    mode = Staged;
    scope = "";
    upcall = (fun ~name ~bytes f -> call Domain.Driver_lib ~name ~bytes f);
    downcall = (fun ~name ~bytes f -> call Domain.Kernel ~name ~bytes f);
    notify =
      (fun ~name ~bytes f ->
        Batch.post ~target:Domain.Driver_lib ~payload_bytes:bytes
          ~context:name f);
  }

let decaf =
  {
    mode = Decaf;
    scope = "";
    upcall =
      (fun ~name ~bytes f ->
        Decaf_runtime.Runtime.start ();
        call Domain.Decaf_driver ~name ~bytes f);
    downcall = (fun ~name ~bytes f -> call Domain.Kernel ~name ~bytes f);
    (* No [Runtime.start] here: a notification can be posted from
       interrupt context, and by the time a driver has anything to notify
       about its probe upcall has already started the runtime. *)
    notify =
      (fun ~name ~bytes f ->
        Batch.post ~target:Domain.Decaf_driver ~payload_bytes:bytes
          ~context:name f);
  }

let of_mode = function Native -> native | Staged -> staged | Decaf -> decaf

let mode_name = function
  | Native -> "native"
  | Staged -> "staged"
  | Decaf -> "decaf"
