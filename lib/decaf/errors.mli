(** Error handling for decaf drivers.

    Kernel C reports failures through integer return codes and the
    [goto]-label cleanup idiom; decaf drivers use checked exceptions
    (§5.1). This module is the bridge: exceptions inside the decaf
    driver, errno codes at the kernel boundary. *)

exception Hw_error of { driver : string; errno : int; context : string }
(** The per-driver checked exception (the paper's [E1000HWException]). *)

(* Linux errno values used by the drivers:
   EIO=5 ENOMEM=12 EBUSY=16 ENODEV=19 EINVAL=22 ETIMEDOUT=110. *)

val eio : int
val enomem : int
val enodev : int
val ebusy : int
val einval : int
val etimedout : int

val throw : driver:string -> errno:int -> string -> 'a

val check : driver:string -> context:string -> int -> unit
(** Raise {!Hw_error} when the return code is negative — converting a
    C-style call into exception style. *)

val to_errno : (unit -> unit) -> int
(** Run a decaf-driver body, mapping success to 0 and {!Hw_error} to its
    negative errno: the translation applied at every kernel entry
    point. *)

val to_result : (unit -> 'a) -> ('a, int) result

val protect : cleanup:(unit -> unit) -> (unit -> 'a) -> 'a
(** Run the body; on exception, run [cleanup] then re-raise — the nested
    try/catch shape of the paper's Figure 4. *)

val with_retry :
  attempts:int -> backoff_ns:int -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [with_retry ~attempts ~backoff_ns f a b] runs [f a b] up to
    [attempts] times, sleeping [backoff_ns] (doubling each round, capped
    at 8x) between tries. Only {!Hw_error} triggers a retry — the
    transient-handshake idiom for EEPROM/PHY waits; the last attempt's
    exception propagates. The arguments are passed, not captured, so a
    handshake that succeeds first time allocates nothing here. *)
