(** USB core: URBs and host-controller driver (HCD) registration. *)

type direction = Dir_in | Dir_out
type transfer = Control | Bulk | Interrupt

type urb = {
  transfer : transfer;
  direction : direction;
  endpoint : int;
  buffer : Bytes.t;
  mutable actual_length : int;
  mutable status : int;  (** 0 = success, negative errno otherwise *)
  mutable complete : urb -> unit;
}

type hcd_ops = {
  hcd_submit_urb : urb -> (unit, int) result;
      (** Queue the URB; its [complete] callback fires (possibly from
          interrupt context) when the transfer finishes. *)
  hcd_frame_number : unit -> int;
}

val register_hcd : name:string -> hcd_ops -> unit
(** At most one HCD may be registered at a time. *)

val unregister_hcd : unit -> unit

val submit_urb : urb -> (unit, int) result

val bulk_msg :
  direction:direction -> endpoint:int -> Bytes.t -> (int, int) result
(** Synchronous bulk transfer: submit and block until completion. Returns
    the number of bytes transferred, or the URB's error status. *)

val frame_number : unit -> int
val reset : unit -> unit
