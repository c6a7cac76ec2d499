module K = Decaf_kernel
module Hw = Decaf_hw
module P = Hw.Psmouse_hw
module Errors = Decaf_runtime.Errors

let driver = "psmouse"
let state_wire_bytes = 64

let model_box : P.t option ref = ref None

let setup_device () =
  let model = P.create () in
  model_box := Some model;
  model

type phase = Init | Streaming

type adapter = {
  env : Driver_env.t;
  mutable phase : phase;
  (* init-phase byte channel from the interrupt handler to the
     protocol code (which may run at user level) *)
  byte_fifo : int Queue.t;
  byte_ready : K.Sync.Waitq.t;
  (* streaming-phase packet assembly *)
  mutable packet : int list;  (** bytes of the packet being assembled *)
  mutable packets : int;
  mutable device_id : int;
  mutable input : K.Inputcore.t option;
}

(* --- nucleus: interrupt handler --- *)

let sign_extend flags bit v = if flags land bit <> 0 then v - 256 else v

(* Deferred kernel->user event-counter refresh: the decaf driver keeps a
   view of how many packets its protocol state machine has consumed, but
   the data path runs in the nucleus, so the view is refreshed with a
   one-way notification — postable from the interrupt handler, batched
   and flushed like E1000_drv's stats syncs. *)
let sync_wire_bytes = 8

let deliver_packet a bytes =
  match (bytes, a.input) with
  | [ flags; dx; dy ], Some input ->
      a.packets <- a.packets + 1;
      K.Inputcore.report_rel input ~dx:(sign_extend flags 0x10 dx)
        ~dy:(sign_extend flags 0x20 dy);
      if flags land 0x07 <> 0 then
        K.Inputcore.report_key input ~code:(flags land 0x07) ~pressed:true;
      K.Inputcore.sync input;
      Driver_env.notify a.env ~name:"psmouse_sync" ~bytes:sync_wire_bytes ignore
  | _ -> ()

let interrupt a =
  let status = K.Io.inb P.status_port in
  if status land P.status_obf <> 0 then begin
    let byte = K.Io.inb P.data_port in
    match a.phase with
    | Init ->
        Queue.push byte a.byte_fifo;
        ignore (K.Sync.Waitq.wake_all a.byte_ready)
    | Streaming ->
        a.packet <- a.packet @ [ byte ];
        if List.length a.packet = 3 then begin
          deliver_packet a a.packet;
          a.packet <- []
        end
  end

(* --- decaf driver: protocol negotiation --- *)

(* Block until the interrupt handler delivers the next byte. The byte
   sits in a kernel buffer, so in decaf mode fetching it is a downcall —
   one kernel/user round trip per protocol byte, which is where most of
   this driver's initialization crossings come from. *)
let wait_byte a =
  let deadline = K.Clock.now () + 500_000_000 in
  (* A lost byte means the interrupt handler never wakes us: arm a wake
     at the deadline so the timeout check below actually runs instead of
     the wait blocking forever. *)
  let timeout =
    K.Clock.at deadline (fun () -> ignore (K.Sync.Waitq.wake_all a.byte_ready))
  in
  while Queue.is_empty a.byte_fifo && K.Clock.now () < deadline do
    K.Sync.Waitq.wait a.byte_ready
  done;
  K.Clock.cancel timeout;
  let fetched =
    Driver_env.downcall a.env ~name:"serio_read" ~bytes:4 (fun () ->
        Queue.take_opt a.byte_fifo)
  in
  match fetched with
  | Some b -> b
  | None -> Errors.throw ~driver ~errno:Errors.etimedout "mouse byte"

let send_cmd a byte =
  Driver_env.outb a.env P.status_port P.cmd_write_aux;
  Driver_env.outb a.env P.data_port byte

let expect_ack a =
  let b = wait_byte a in
  if b <> 0xfa then Errors.throw ~driver ~errno:Errors.eio "expected ACK"

let command a byte =
  send_cmd a byte;
  expect_ack a

let reset_mouse a =
  command a 0xff;
  let bat = wait_byte a in
  if bat <> 0xaa then Errors.throw ~driver ~errno:Errors.eio "BAT failed";
  let id = wait_byte a in
  a.device_id <- id

let identify a =
  command a 0xf2;
  a.device_id <- wait_byte a

let set_rate a rate =
  command a 0xf3;
  command a rate

let set_resolution a res =
  command a 0xe8;
  command a res

let enable_streaming a =
  command a 0xf4;
  a.phase <- Streaming

let protocol_detect a =
  reset_mouse a;
  identify a;
  (* the IntelliMouse knock: 200, 100, 80 *)
  set_rate a 200;
  set_rate a 100;
  set_rate a 80;
  identify a;
  set_resolution a 4;
  set_rate a 100

let connect env =
  match !model_box with
  | None -> Error (-Errors.enodev)
  | Some _ ->
      let a =
        {
          env;
          phase = Init;
          byte_fifo = Queue.create ();
          byte_ready = K.Sync.Waitq.create ~name:"psmouse-byte" ();
          packet = [];
          packets = 0;
          device_id = -1;
          input = None;
        }
      in
      (* Drain bytes left over from an aborted earlier negotiation.  The
         i8042 presents one byte at a time with a serial gap before the
         next, so keep polling until the line stays quiet for several
         gap times; done before claiming the IRQ so stale bytes go
         nowhere. *)
      let rec drain quiet =
        if quiet < 4 then
          if K.Io.inb P.status_port land P.status_obf <> 0 then begin
            ignore (K.Io.inb P.data_port);
            drain 0
          end
          else begin
            K.Sched.sleep_ns (2 * P.byte_gap_ns);
            drain (quiet + 1)
          end
      in
      drain 0;
      K.Irq.request_irq P.aux_irq ~name:driver (fun () -> interrupt a);
      K.Io.outb P.status_port P.cmd_enable_aux;
      let rc =
        (* an XPC fault escapes the errno translation below: still give
           the AUX line back so a retry can claim it *)
        Errors.protect
          ~cleanup:(fun () -> K.Irq.free_irq P.aux_irq)
          (fun () ->
            Driver_env.upcall env ~name:"psmouse_connect"
              ~bytes:state_wire_bytes (fun () ->
                Errors.to_errno (fun () ->
                    protocol_detect a;
                    Driver_env.downcall a.env ~name:"input_register_device"
                      ~bytes:32 (fun () ->
                        let input = K.Inputcore.create ~name:"psmouse" in
                        K.Inputcore.register input;
                        a.input <- Some input);
                    Driver_env.downcall a.env ~name:"enable_stream" ~bytes:16
                      (fun () -> ());
                    enable_streaming a)))
      in
      if rc = 0 then Ok a
      else begin
        K.Irq.free_irq P.aux_irq;
        Error rc
      end

let () = K.Boot.on_reset @@ fun () -> model_box := None

(* --- power management --- *)

let suspend a =
  Driver_env.upcall a.env ~name:"psmouse_suspend" ~bytes:state_wire_bytes
    (fun () ->
      (* back to the init-phase byte channel so the disable ACK is
         readable, and drop any half-assembled packet *)
      a.phase <- Init;
      a.packet <- [];
      command a 0xf5)

let resume a =
  Driver_env.upcall a.env ~name:"psmouse_resume" ~bytes:state_wire_bytes
    (fun () ->
      (* bytes queued across the suspend belong to no negotiation *)
      Queue.clear a.byte_fifo;
      enable_streaming a)

(* The input bus has no ids: the AUX port is not enumerable. *)
include Singleton.Make (struct
  type nonrec adapter = adapter

  let name = driver
  let module_name = driver
  let bus = K.Hotplug.Input
  let probe = connect

  let exit a =
    K.Irq.free_irq P.aux_irq;
    match a.input with Some input -> K.Inputcore.unregister input | None -> ()

  let suspend = suspend
  let resume = resume

  let owns a id =
    match a.input with
    | Some input -> K.Inputcore.name input = id
    | None -> false
end)

let input_dev t =
  match t.adapter.input with
  | Some i -> i
  | None -> K.Panic.bug "psmouse: no input device"

let packets_handled t = t.adapter.packets
let detected_id t = t.adapter.device_id
