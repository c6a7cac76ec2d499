(** Register-level model of a UHCI USB 1.1 host controller with a flash
    drive attached to root port 1.

    The controller decodes a 32-byte port window. While running it
    advances one frame per millisecond and moves at most ~1280 bytes of
    bulk data per frame (the USB 1.1 full-speed budget), completing
    transfer descriptors submitted through {!submit_td} — the model's
    stand-in for the frame-list DMA schedule. *)

type t

val reg_usbcmd : int
(** 0x00 (16-bit): bit 0 run/stop, bit 1 host-controller reset
    (self-clearing). *)

val reg_usbsts : int
(** 0x02 (16-bit): bit 0 = transfer interrupt; write 1 to clear. *)

val reg_usbintr : int
(** 0x04 (16-bit): non-zero enables transfer interrupts. *)

val reg_frnum : int
(** 0x06 (16-bit): frame counter. *)

val reg_portsc1 : int
(** 0x10 (16-bit): bit 0 connect status, bit 1 connect change (w1c),
    bit 2 port enabled, bit 9 port reset (self-clearing). *)

val cmd_rs : int
val cmd_hcreset : int
val sts_usbint : int
val portsc_ccs : int
val portsc_csc : int
val portsc_ped : int
val portsc_pr : int

type td_status = Td_ok | Td_stalled | Td_no_device

val create : io_base:int -> irq:int -> unit -> t
val destroy : t -> unit

val submit_td :
  t ->
  direction:Decaf_kernel.Usbcore.direction ->
  length:int ->
  complete:(actual:int -> td_status -> unit) ->
  unit
(** Queue a bulk transfer descriptor for the flash drive; it completes
    from frame processing. Submitting while the port is disabled
    completes with [Td_no_device]. *)

val frames_run : t -> int
val drive_bytes_written : t -> int
