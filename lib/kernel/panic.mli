(** Kernel bug reporting: the simulated analogue of [BUG()] and oopses. *)

exception Kernel_bug of string
(** Raised when the simulated kernel detects an internal invariant
    violation, e.g. blocking while holding a spinlock. *)

val bug : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [bug fmt ...] raises {!Kernel_bug} with a formatted message. *)
