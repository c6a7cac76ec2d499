(** Simulated C addresses for kernel objects.

    Kernel-side structures are identified across domains by their address
    cast to an integer, exactly as in the paper. Embedded structures get
    the parent's address plus an offset — so a structure whose first
    member is another structure shares its address with it, reproducing
    the aliasing the user-level object tracker must disambiguate. *)

val alloc : size:int -> int
(** A fresh, 16-byte-aligned simulated address. *)

val embedded : parent:int -> offset:int -> int
val reset : unit -> unit
(** Restart allocation at the first address, as every
    {!Decaf_kernel.Boot.boot} does. *)
