(** Programmed I/O and memory-mapped I/O dispatch to device models.

    Device models claim port and MMIO ranges; drivers access them with the
    usual [inb]/[outb]/[readl]/[writel] family. Every access is charged
    virtual time. *)

type width = W8 | W16 | W32

type region

val register_ports :
  base:int ->
  len:int ->
  read:(int -> width -> int) ->
  write:(int -> width -> int -> unit) ->
  region
(** Claim the port range [base, base+len). Handlers receive the offset
    from [base]. Overlapping an existing range raises
    {!Panic.Kernel_bug}. *)

val register_mmio :
  base:int ->
  len:int ->
  read:(int -> width -> int) ->
  write:(int -> width -> int -> unit) ->
  region

val release : region -> unit

val inb : int -> int
val inw : int -> int
val inl : int -> int
val outb : int -> int -> unit
(** [outb port value]. *)

val outw : int -> int -> unit
val outl : int -> int -> unit

val readb : int -> int
val readl : int -> int

val writel : int -> int -> unit

val reset : unit -> unit
