(** Seeded, deterministic fault injection.

    A fault plan is a list of {!spec}s armed with a PRNG seed. Injection
    hooks throughout the simulated machine ({!Io} register reads, DMA and
    slab allocation, the hardware models' EEPROM/PHY/link paths, XPC
    crossings) consult the plan on every access; a spec that matches the
    access's site (and, optionally, address) evaluates its trigger and,
    when it fires, perturbs the access. Every fired injection is counted
    and logged, so a campaign can assert exactly how much damage was done
    and that all of it was survived.

    The same seed and plan always yield the same injections: [Span]
    triggers count matches per spec, and [Prob] draws from the plan's own
    PRNG, never the global one. *)

type kind =
  | Bad_read  (** flip one (seeded) low bit of the value read *)
  | Stuck_ones  (** the read returns all-ones for its width *)
  | Stuck_zero  (** the read returns zero: ready bits never set *)
  | Alloc_fail  (** the allocation returns [None] *)
  | Xpc_timeout  (** the XPC misses its deadline and fails *)
  | Spurious_irq  (** an interrupt nobody asked for *)
  | Link_flap  (** the wire eats a frame in flight *)

type trigger =
  | Always
  | Span of int * int
      (** [Span (first, count)]: fire on the [first]-th through
          [first+count-1]-th matching accesses (1-based). *)
  | Prob of float  (** fire on each match with this probability *)

type spec = { site : string; addr : int option; kind : kind; trigger : trigger }

type injection = {
  inj_site : string;
  inj_addr : int option;
  inj_kind : kind;
  inj_seq : int;
}

val spec : ?addr:int -> site:string -> kind:kind -> trigger:trigger -> unit -> spec

val arm : seed:int -> spec list -> unit
(** Install a fault plan, zeroing the injection counters and seeding the
    plan's PRNG. *)

val disarm : unit -> unit
(** Stop injecting; counters and log are kept for harvesting. *)

val active : unit -> bool

val fires : site:string -> ?addr:int -> kind -> bool
(** Consult the plan for a non-read hook (allocation, XPC, handshake).
    Advances every matching spec's counter; true when any fired, in which
    case the injection has been recorded. *)

val filter_read : site:string -> addr:int -> int -> int
(** Pass a register/word read through the plan, applying any firing
    [Stuck_ones]/[Stuck_zero]/[Bad_read] spec to the value. *)

val draw : Random.State.t -> float -> bool
(** [draw rng p] is a [Prob p] trigger's decision: what
    [Random.State.float rng 1.0 < p] returns, from the same draws and
    leaving [rng] in the same state, without boxing a float. *)

val injected_count : unit -> int
val injections : unit -> injection list

val reset : unit -> unit
(** Disarm and zero all counters (called on boot). *)
