(** Kernel timers. Handlers fire in interrupt context (high priority), so
    they must not block — which is exactly why the decaf E1000 watchdog
    is converted to enqueue a work item instead (§3.1.3). *)

type t

val create : ?name:string -> (unit -> unit) -> t

val mod_timer : t -> expires_ns:int -> unit
(** (Re)arm the timer to fire at absolute virtual time [expires_ns]. *)

val mod_timer_in : t -> int -> unit
(** Arm the timer [ns] from now. *)

val del_timer : t -> bool
(** Disarm; [true] if the timer was pending. *)

val pending : t -> bool

val fired : t -> int
(** Number of times the handler has run. *)
