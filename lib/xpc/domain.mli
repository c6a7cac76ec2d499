(** Protection domains participating in driver execution (§2.3).

    The [Kernel] domain holds the driver nucleus; [Driver_lib] is the
    user-level C library; [Decaf_driver] is the managed-language driver.
    The driver library and decaf driver share one process, so crossings
    between them are cheap language transitions, while kernel crossings
    pay the full protection-boundary cost. *)

type t = Kernel | Driver_lib | Decaf_driver

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val tabulate : (t -> 'a) -> t -> 'a
(** [tabulate f] computes [f] once per domain and returns the lookup,
    for per-domain values built once (trace objects). *)

val current : unit -> t
(** Domain executing on the (single) CPU right now; [Kernel] at boot. *)

val with_domain : t -> (unit -> 'a) -> 'a
(** Run [f] with {!current} switched to the given domain. *)

val call_in : t -> ('a -> 'b -> 'c) -> 'a -> 'b -> 'c
(** [call_in d f a b] is [with_domain d (fun () -> f a b)] without the
    closure, for per-access paths that must not allocate. *)

val is_user : t -> bool
