(** A FIFO of frames in a power-of-two ring that grows by doubling on
    demand and never shrinks. Each frame carries an int stamp (the NIC
    models keep its birth time there) and a tag of the owner's choosing
    (the link keeps the frame's completion callback there; the NIC rings
    need none and use [unit]). Once the ring has reached its working
    depth, pushing, reading and dropping allocate nothing; a dropped slot
    lets go of its frame but keeps its tag until the slot is reused, so
    a tag should be something its owner keeps anyway. *)

type 'a t

val create : 'a -> 'a t
(** [create blank]: an empty ring whose slots hold [blank] as their tag
    until first filled (and new slots, after a growth, some tag already
    held). *)

val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> bytes -> int -> 'a -> unit
(** [push q frame stamp tag] appends [frame] as the newest entry. *)

val head : 'a t -> bytes
(** The oldest frame, left in place. The ring must not be empty: an
    empty ring reads as a dropped slot ([Bytes.empty]). *)

val head_stamp : 'a t -> int
val head_tag : 'a t -> 'a

val drop : 'a t -> unit
(** Remove the oldest frame; raises [Invalid_argument] when empty. *)

val clear : 'a t -> unit
