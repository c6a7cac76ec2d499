module K = Decaf_kernel
module Io = K.Io

let reg_usbcmd = 0x00
let reg_usbsts = 0x02
let reg_usbintr = 0x04
let reg_frnum = 0x06
let reg_portsc1 = 0x10
let reg_portsc2 = 0x12
let cmd_rs = 0x01
let cmd_hcreset = 0x02
let sts_usbint = 0x01
let portsc_ccs = 0x001
let portsc_csc = 0x002
let portsc_ped = 0x004
let portsc_pr = 0x200
let frame_budget_bytes = 1280
let frame_ns = 1_000_000

type td_status = Td_ok | Td_stalled | Td_no_device

type td = {
  direction : K.Usbcore.direction;
  length : int;
  mutable moved : int;
  complete : actual:int -> td_status -> unit;
}

type t = {
  irq_line : int;
  mutable region : Io.region option;
  tds : td Queue.t;
  mutable usbcmd : int;
  mutable usbsts : int;
  mutable usbintr : int;
  mutable frnum : int;
  mutable portsc1 : int;
  mutable portsc2 : int;
  mutable frames : int;
  mutable written : int;
  mutable tick : K.Clock.event_id option;
}

let port_enabled t = t.portsc1 land portsc_ped <> 0

let finish t td status =
  (match status with
  | Td_ok ->
      if td.direction = K.Usbcore.Dir_out then
        t.written <- t.written + td.length
  | Td_stalled | Td_no_device -> ());
  t.usbsts <- t.usbsts lor sts_usbint;
  if t.usbintr <> 0 then K.Irq.raise_irq t.irq_line;
  td.complete ~actual:td.moved status

let rec schedule_frame t =
  t.tick <- Some (K.Clock.after frame_ns (fun () -> on_frame t))

and on_frame t =
  t.tick <- None;
  if t.usbcmd land cmd_rs <> 0 then begin
    t.frnum <- (t.frnum + 1) land 0x7ff;
    t.frames <- t.frames + 1;
    (* Move up to the frame budget of bulk data through queued TDs. *)
    let budget = ref frame_budget_bytes in
    let continue = ref true in
    while !continue && !budget > 0 && not (Queue.is_empty t.tds) do
      if not (port_enabled t) then begin
        let td = Queue.pop t.tds in
        finish t td Td_no_device
      end
      else begin
        let td = Queue.peek t.tds in
        let chunk = Int.min !budget (td.length - td.moved) in
        td.moved <- td.moved + chunk;
        budget := !budget - chunk;
        if td.moved >= td.length then begin
          ignore (Queue.pop t.tds);
          td.moved <- td.length;
          finish t td Td_ok
        end
        else continue := false
      end
    done;
    schedule_frame t
  end

let do_reset t =
  t.usbcmd <- 0;
  t.usbsts <- 0;
  t.usbintr <- 0;
  t.frnum <- 0;
  Option.iter K.Clock.cancel t.tick;
  t.tick <- None;
  (* Flash drive stays attached across controller reset. *)
  t.portsc1 <- portsc_ccs lor portsc_csc;
  t.portsc2 <- 0;
  Queue.iter (fun td -> td.complete ~actual:td.moved Td_no_device) t.tds;
  Queue.clear t.tds

let read t off (_w : Io.width) =
  match off with
  | _ when off = reg_usbcmd -> t.usbcmd
  | _ when off = reg_usbsts -> t.usbsts
  | _ when off = reg_usbintr -> t.usbintr
  | _ when off = reg_frnum -> t.frnum
  | _ when off = reg_portsc1 -> t.portsc1
  | _ when off = reg_portsc2 -> t.portsc2
  | _ -> 0

let write t off (_w : Io.width) v =
  match off with
  | _ when off = reg_usbcmd ->
      if v land cmd_hcreset <> 0 then do_reset t
      else begin
        let was_running = t.usbcmd land cmd_rs <> 0 in
        t.usbcmd <- v;
        let running = v land cmd_rs <> 0 in
        if running && not was_running then schedule_frame t;
        if (not running) && was_running then begin
          Option.iter K.Clock.cancel t.tick;
          t.tick <- None
        end
      end
  | _ when off = reg_usbsts -> t.usbsts <- t.usbsts land lnot v
  | _ when off = reg_usbintr -> t.usbintr <- v
  | _ when off = reg_frnum -> t.frnum <- v land 0x7ff
  | _ when off = reg_portsc1 ->
      (* w1c on connect-change; port reset enables the port when it
         completes 10 ms later. *)
      if v land portsc_csc <> 0 then t.portsc1 <- t.portsc1 land lnot portsc_csc;
      if v land portsc_pr <> 0 then begin
        t.portsc1 <- t.portsc1 lor portsc_pr;
        ignore
          (K.Clock.after 10_000_000 (fun () ->
               t.portsc1 <- t.portsc1 land lnot portsc_pr lor portsc_ped))
      end
      else if v land portsc_ped = 0 && t.portsc1 land portsc_ped <> 0 then
        t.portsc1 <- t.portsc1 land lnot portsc_ped
  | _ -> ()

let create ~io_base ~irq () =
  let t =
    {
      irq_line = irq;
      region = None;
      tds = Queue.create ();
      usbcmd = 0;
      usbsts = 0;
      usbintr = 0;
      frnum = 0;
      portsc1 = portsc_ccs lor portsc_csc;
      portsc2 = 0;
      frames = 0;
      written = 0;
      tick = None;
    }
  in
  t.region <-
    Some
      (Io.register_ports ~base:io_base ~len:0x20
         ~read:(fun off w -> read t off w)
         ~write:(fun off w v -> write t off w v));
  t

let destroy t =
  Option.iter K.Clock.cancel t.tick;
  Option.iter Io.release t.region

let submit_td t ~direction ~length ~complete =
  if length < 0 then invalid_arg "Uhci_hw.submit_td";
  Queue.push { direction; length; moved = 0; complete } t.tds

let frames_run t = t.frames
let drive_bytes_written t = t.written
