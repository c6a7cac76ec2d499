(** The XDR external data representation (RFC 4506), used to marshal
    driver data structures between the driver library and the decaf
    driver (§3.2.3).

    Every item occupies a multiple of four bytes, big-endian, exactly as
    the standard specifies; property tests check round-trips and
    alignment. *)

exception Decode_error of string

module Enc : sig
  type t

  val create : unit -> t
  val clear : t -> unit (** Empty the buffer, keeping its storage. *)

  val int : t -> int -> unit
  (** 32-bit signed integer; raises [Invalid_argument] outside range. *)

  val uint : t -> int -> unit
  (** 32-bit unsigned integer. *)

  val hyper : t -> int64 -> unit
  (** 64-bit integer (XDR [hyper] — what DriverSlicer maps C's
      [long long] to). *)

  val bool : t -> bool -> unit
  val double : t -> float -> unit

  val string : t -> string -> unit

  val option : t -> (t -> 'a -> unit) -> 'a option -> unit
  (** XDR optional-data: a boolean discriminant then the payload. *)

  val array_fixed : t -> (t -> 'a -> unit) -> 'a array -> unit
  val array_var : t -> (t -> 'a -> unit) -> 'a array -> unit
  val size : t -> int
  val to_bytes : t -> bytes
end

module Dec : sig
  type t

  val of_bytes : bytes -> t
  val int : t -> int
  val uint : t -> int
  val hyper : t -> int64
  val bool : t -> bool
  val double : t -> float
  val string : t -> string
  val option : t -> (t -> 'a) -> 'a option
  val array_fixed : t -> (t -> 'a) -> int -> 'a array
  val array_var : t -> (t -> 'a) -> 'a array

  val pos : t -> int
  val remaining : t -> int

  val check_drained : t -> unit
  (** Raise {!Decode_error} unless every byte has been consumed. *)
end
