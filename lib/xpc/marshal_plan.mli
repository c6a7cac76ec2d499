(** Field-selective marshal plans.

    XPC copies only the fields the target domain actually accesses
    (§2.3): DriverSlicer computes, per shared structure, which fields the
    user-level code reads and which it writes, and the generated
    marshaling code consults the plan in both directions. *)

type access = Read | Write | Read_write

type t

val make : type_id:string -> (string * access) list -> t
(** Duplicate field names raise [Invalid_argument]. *)

val type_id : t -> string
val fields : t -> (string * access) list

val access : t -> string -> access option
(** Per-field access lookup, a walk of the plan. Only construction
    ({!Codec.make}, {!Guard.make}), the slicer and lint ask: a marshal
    reads each field's access from the codec's table by position. *)

val copies_in : t -> string -> bool
(** Whether the field is copied toward the target (target reads it). *)

val copies_out : t -> string -> bool
(** Whether the field is copied back to the source (target writes it). *)

val union : t -> t -> t
(** Merge two plans for the same type (stub regeneration after new
    annotations); access rights are combined per field. Field order is
    deterministic and documented: [a]'s fields first in [a]'s order, then
    fields only [b] lists, in [b]'s order — order is part of the wire
    format, so it must not depend on merge internals. *)

val pp : Format.formatter -> t -> unit

(** {1 Dirty-field delta marshaling}

    Shared structures cross the boundary repeatedly (the E1000 adapter
    struct crosses on every control operation), yet between two crossings
    typically only a field or two changed. When delta marshaling is
    enabled, each side tracks writes per field and repeat marshals copy
    only fields written since the last acknowledged crossing; the cost
    model then charges only moved bytes. *)

val set_delta_enabled : bool -> unit
(** Global, like {!Channel.set_direct_marshaling}: both sides of a
    boundary must agree on the payload format. Off by default and after
    every boot. *)

val delta_enabled : unit -> bool

module Dirty : sig
  type t
  (** Per-object write tracker, kept alongside the objtracker entry. Every
      {!mark} advances a monotonic generation; marshaling snapshots the
      generation, and once the crossing is known to have succeeded the
      sender acknowledges {e up to that snapshot} — writes that landed
      during the crossing (an interrupt marking fields mid-call) keep
      their marks and go out with the next delta. *)

  val create : ?owner:string -> int -> t
  (** A tracker for a structure of this many fields, which {!mark} and
      {!test} name by table position. [owner] (default ["dirty"]) names
      the tracker in boundary-fault reports. *)

  val mark : t -> int -> unit
  (** Record a write to the field at this position. *)

  val test : t -> int -> bool
  (** Whether the field at this position has an unacknowledged write. *)

  val pending : t -> int
  (** Number of fields with unacknowledged writes. *)

  val snapshot : t -> int
  (** Current generation, to pass to {!acknowledge} after the crossing
      carrying these fields succeeds. Advances the issued high-water
      mark consulted by {!acknowledge}. *)

  val acknowledge : t -> upto:int -> unit
  (** Drop marks whose write generation is [<= upto]. An [upto] above
      the generation high-water mark returned by {!snapshot} was never
      issued: the ack is forged or replayed from a different window, and
      it raises {!Boundary.Boundary_violation} instead of flushing marks
      the peer never saw. *)

  val issued : t -> int
  (** The snapshot high-water mark (highest generation ever issued). *)
end
