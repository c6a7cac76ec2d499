open Decaf_xpc
module K = Decaf_kernel
module Runtime = Decaf_runtime.Runtime

type mode = Native | Staged | Decaf

type meter = {
  mutable upcalls : int;
  mutable downcalls : int;
  mutable notifies : int;
  mutable wire_bytes : int;
  mutable syncs : int;
}

type t = { mode : mode; scope : string; meter : meter; mutable closed : bool }

let create mode ~scope =
  {
    mode;
    scope;
    meter =
      { upcalls = 0; downcalls = 0; notifies = 0; wire_bytes = 0; syncs = 0 };
    closed = false;
  }

let close env = env.closed <- true

let native = create Native ~scope:""
let staged = create Staged ~scope:""
let decaf = create Decaf ~scope:""
let scope_or env default = if env.scope = "" then default else env.scope

let mode_name = function
  | Native -> "native"
  | Staged -> "staged"
  | Decaf -> "decaf"

(* The domain the user-level half runs in: the C driver library while
   staged, the managed runtime once converted. *)
let user_domain env =
  match env.mode with
  | Decaf -> Domain.Decaf_driver
  | Native | Staged -> Domain.Driver_lib

let split env = env.mode <> Native
let start_runtime env = if env.mode = Decaf then Runtime.start ()

(* --- port and MMIO access: direct Jeannie calls from user level --- *)

let inb env p = (if split env then Runtime.Helpers.inb else K.Io.inb) p
let inw env p = (if split env then Runtime.Helpers.inw else K.Io.inw) p
let inl env p = (if split env then Runtime.Helpers.inl else K.Io.inl) p
let readl env a = (if split env then Runtime.Helpers.readl else K.Io.readl) a
let outb env p v = (if split env then Runtime.Helpers.outb else K.Io.outb) p v
let outw env p v = (if split env then Runtime.Helpers.outw else K.Io.outw) p v
let outl env p v = (if split env then Runtime.Helpers.outl else K.Io.outl) p v

let writel env a v =
  (if split env then Runtime.Helpers.writel else K.Io.writel) a v

(* --- crossings --- *)

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

(* Both directions run [f] under the env's Boundary scope, so validation
   rejections inside the crossing land in the binding's counters; the
   scope is a plain string, saved and restored without a closure. A
   native "crossing" is a call: it runs in scope but is not counted. *)
let cross env ~up target ~name ~bytes f =
  let saved = Boundary.enter env.scope in
  match
    if split env then begin
      let m = env.meter in
      if up then m.upcalls <- m.upcalls + 1
      else m.downcalls <- m.downcalls + 1;
      m.wire_bytes <- m.wire_bytes + bytes;
      if up then start_runtime env;
      call target ~name ~bytes f
    end
    else f ()
  with
  | v ->
      Boundary.leave saved;
      v
  | exception e ->
      Boundary.leave saved;
      raise e

let upcall env ~name ~bytes f =
  cross env ~up:true (user_domain env) ~name ~bytes f

let downcall env ~name ~bytes f =
  cross env ~up:false Domain.Kernel ~name ~bytes f

(* No [start_runtime] here: a notification can be posted from interrupt
   context, and by the time a driver has anything to notify about its
   probe upcall has already started the runtime. The delivery closure
   holds the env rather than its meter (the same two free variables), so
   a notification that outlives its binding's unbind is a kernel bug at
   delivery, whichever driver posted it. *)
let notify env ~name ~bytes f =
  if split env then begin
    let m = env.meter in
    m.notifies <- m.notifies + 1;
    m.wire_bytes <- m.wire_bytes + bytes;
    let saved = Boundary.enter env.scope in
    match
      Batch.post ~target:(user_domain env) ~payload_bytes:bytes ~context:name
        (fun () ->
          if env.closed then
            K.Panic.bug "%s: deferred notification delivered after unbind"
              env.scope;
          f ();
          env.meter.syncs <- env.meter.syncs + 1)
    with
    | () -> Boundary.leave saved
    | exception e ->
        Boundary.leave saved;
        raise e
  end

let ring env ~name ~guard ~resolve ~apply =
  if split env then begin
    let m = env.meter in
    Some
      (Ring.create ~name ~target:(user_domain env) ~guard ~resolve
         ~handler:(fun r ->
           apply r;
           m.syncs <- m.syncs + 1)
         ())
  end
  else None
