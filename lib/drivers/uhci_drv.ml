module K = Decaf_kernel
module Hw = Decaf_hw
module U = Hw.Uhci_hw
module Errors = Decaf_runtime.Errors
module Runtime = Decaf_runtime.Runtime

let driver = "uhci_hcd"
let state_wire_bytes = 96

(* The plugged controller and its resources, remembered so the registry
   (which probes by name, not resources) can probe it at every bind. *)
let plugged : (U.t * int * int) option ref = ref None

let setup_device ~io_base ~irq () =
  let model = U.create ~io_base ~irq () in
  plugged := Some (model, io_base, irq);
  model

type adapter = {
  env : Driver_env.t;
  model : U.t;
  io_base : int;
  irq : int;
  mutable completed : int;
}

let reg a off = a.io_base + off
let outw a off v = Driver_env.outw a.env (reg a off) v
let inw a off = Driver_env.inw a.env (reg a off)

(* --- nucleus: URB scheduling (data path) --- *)

(* Deferred kernel->user completion-counter refresh: the user-level half
   watches transfer progress for its schedule bookkeeping, but TD
   completions land in the nucleus (frame-timer context). One-way
   notification per completion — batched and flushed like E1000_drv's
   stats syncs. *)
let complete_wire_bytes = 8

let submit_urb a (urb : K.Usbcore.urb) =
  match urb.K.Usbcore.transfer with
  | K.Usbcore.Bulk ->
      U.submit_td a.model ~direction:urb.K.Usbcore.direction
        ~length:(Bytes.length urb.K.Usbcore.buffer)
        ~complete:(fun ~actual status ->
          urb.K.Usbcore.actual_length <- actual;
          urb.K.Usbcore.status <-
            (match status with
            | U.Td_ok -> 0
            | U.Td_stalled -> -32
            | U.Td_no_device -> -Errors.enodev);
          a.completed <- a.completed + 1;
          Driver_env.notify a.env ~name:"uhci_complete"
            ~bytes:complete_wire_bytes ignore;
          urb.K.Usbcore.complete urb);
      Ok ()
  | K.Usbcore.Control | K.Usbcore.Interrupt ->
      (* control/interrupt endpoints unused by the storage workload *)
      Error (-Errors.einval)

let interrupt a =
  let status = K.Io.inw (reg a U.reg_usbsts) in
  if status land U.sts_usbint <> 0 then
    K.Io.outw (reg a U.reg_usbsts) U.sts_usbint

(* --- decaf driver: controller bring-up --- *)

let reset_controller a =
  outw a U.reg_usbcmd U.cmd_hcreset;
  if inw a U.reg_usbcmd land U.cmd_hcreset <> 0 then
    Errors.throw ~driver ~errno:Errors.eio "HCRESET did not clear"

let reset_root_port a =
  outw a U.reg_portsc1 U.portsc_pr;
  Runtime.Helpers.msleep 15;
  let portsc = inw a U.reg_portsc1 in
  if portsc land U.portsc_ped = 0 then
    Errors.throw ~driver ~errno:Errors.enodev "port did not enable";
  (* acknowledge the connect change *)
  outw a U.reg_portsc1 (portsc lor U.portsc_csc)

(* Enumerate the attached device: descriptor fetches and configuration
   are kernel usbcore services, each a downcall from the decaf driver. *)
let enumerate_port a =
  let control name = Driver_env.downcall a.env ~name ~bytes:32 (fun () -> ()) in
  control "usb_get_device_descriptor";
  control "usb_set_address";
  control "usb_get_device_descriptor_full";
  control "usb_get_config_descriptor";
  control "usb_set_configuration";
  control "usb_get_string_manufacturer";
  control "usb_get_string_product";
  control "usb_register_dev"

let start_schedule a =
  outw a U.reg_usbintr 0x000f;
  outw a U.reg_usbcmd U.cmd_rs

let stop_schedule a = outw a U.reg_usbcmd 0

let probe env =
  match !plugged with
  | None -> Error (-Errors.enodev)
  | Some (model, io_base, irq) ->
      let a = { env; model; io_base; irq; completed = 0 } in
      let rc =
        Driver_env.upcall env ~name:"uhci_probe" ~bytes:state_wire_bytes
          (fun () ->
            Errors.to_errno (fun () ->
                reset_controller a;
                reset_root_port a;
                enumerate_port a;
                Driver_env.downcall a.env ~name:"request_irq" ~bytes:16
                  (fun () ->
                    K.Irq.request_irq a.irq ~name:driver (fun () -> interrupt a));
                (* give the line back if HCD registration faults, so a
                   supervisor retry can claim it again *)
                Errors.protect
                  ~cleanup:(fun () -> K.Irq.free_irq a.irq)
                  (fun () ->
                    Driver_env.downcall a.env ~name:"usb_register_hcd"
                      ~bytes:32 (fun () ->
                        K.Usbcore.register_hcd ~name:driver
                          {
                            K.Usbcore.hcd_submit_urb =
                              (fun urb -> submit_urb a urb);
                            hcd_frame_number =
                              (fun () -> K.Io.inw (reg a U.reg_frnum));
                          });
                    start_schedule a)))
      in
      if rc = 0 then Ok a else Error rc

let () = K.Boot.on_reset @@ fun () -> plugged := None

(* --- power management --- *)

let suspend a =
  Driver_env.upcall a.env ~name:"uhci_suspend" ~bytes:state_wire_bytes
    (fun () -> stop_schedule a)

let resume a =
  Driver_env.upcall a.env ~name:"uhci_resume" ~bytes:state_wire_bytes
    (fun () -> start_schedule a)

include Singleton.Make (struct
  type nonrec adapter = adapter

  (* registry/campaign row name; the kernel module stays "uhci_hcd" *)
  let name = "uhci-hcd"
  let module_name = driver
  let bus = K.Hotplug.Usb
  let probe = probe

  let exit a =
    stop_schedule a;
    K.Usbcore.unregister_hcd ();
    K.Irq.free_irq a.irq

  let suspend = suspend
  let resume = resume
  let owns _ id = id = driver
end)

let urbs_completed t = t.adapter.completed
