(** One codec for the structures that cross the XPC boundary.

    DriverSlicer describes each shared structure by the fields the decaf
    driver touches (§3.2.3). Here that description is one table of field
    descriptors per structure; the codec derives the structure's
    {!Marshal_plan.t} and {!Guard.t} from it and drives per-domain
    storage with dirty marks, XDR encode and decode, validate-then-apply
    and hostile images.

    Wire layout: the object reference (a capability handle, XDR uint),
    then every field in table order as an XDR optional — a presence
    boolean, then the value when present. *)

type kind =
  | Int  (** XDR int *)
  | Bool  (** XDR bool *)
  | Words of int  (** XDR variable-length uint array, this many at most *)

type desc = {
  name : string;
  access : Marshal_plan.access;
  kind : kind;
  rule : Guard.rule;  (** checked on inbound images *)
}

type t

val make : type_id:string -> desc list -> t
(** Table order is plan order, which is wire order. *)

val type_id : t -> string
val plan : t -> Marshal_plan.t
val guard : t -> Guard.t
val descs : t -> desc list

(** {1 Fields and storage} *)

type 'a field

val int : t -> string -> int field
val bool : t -> string -> bool field

val words : t -> string -> int array field
(** A field's handle; [Invalid_argument] unless the table has it with
    that kind. *)

type obj
(** One domain's copy of a structure's fields, with its dirty marks. *)

val create : ?owner:string -> t -> obj
(** All zero. [owner] (default the type id) names the dirty tracker. *)

val dirty : obj -> Marshal_plan.Dirty.t

val get : obj -> 'a field -> 'a
(** A word array comes back live: write it through {!set} or {!set_word}. *)

val set : obj -> 'a field -> 'a -> unit
(** Write and mark dirty, only if the value changed. *)

val set_quiet : obj -> 'a field -> 'a -> unit
(** Write without a mark: the value arrived over the wire, or rides a
    ring record. *)

val mark : obj -> 'a field -> unit
val set_word : obj -> int array field -> int -> int -> unit

type value = I of int | B of bool | W of int array

val values : obj -> (string * value) list
(** Every field in table order, arrays copied: a snapshot to compare. *)

(** {1 Wire images} *)

type direction =
  | Copy_in  (** toward the user level: the fields the plan copies in *)
  | Copy_out  (** back to the kernel: the fields the plan copies out *)

val encode : obj -> handle:int -> direction -> delta:bool -> bytes
(** The image of the fields the plan copies that way; with [delta], only
    those among them with a dirty mark. *)

type image
(** A decoded image, staged: nothing is stored before {!apply}. *)

val decode : t -> bytes -> image
(** Raise {!Xdr.Decode_error} unless the bytes are exactly one image. *)

val handle : image -> int

val check : image -> unit
(** Guard every present field in table order: writability, then rule. *)

val apply : obj -> image -> writable_only:bool -> unit
(** Store the present fields quietly (with [writable_only], only those
    the plan copies out); word arrays are cut to the field's bound. *)

val payload : t -> handle:int -> (string * value) list -> bytes
(** An arbitrary image: the listed fields present with any values, Read
    fields included, the rest absent. *)

val in_envelope : desc -> value
(** A value the field's rule accepts: the top of a range, the first enum
    member, a full word array. *)

val violations : desc -> (string * value) list
(** The values Guard must refuse on this field, each with a label: the
    field present at all when the plan marks it Read (["present"]), one
    below and one above a [Range], one above an [Enum]'s largest member,
    [-1] for [Non_negative], [Max_len + 1] words. A field with neither a
    Read access nor a rule has none. *)
