(** The kernel log ring buffer (the simulated [printk]/[dmesg]). *)

type level = Emerg | Err | Warning | Info | Debug

val printk : level -> ('a, unit, string, unit) format4 -> 'a
(** Append a message to the kernel log, formatted once with {!Printf}. *)

val dmesg : unit -> string list
(** All retained messages, oldest first, each prefixed with its level and
    virtual timestamp. *)

val clear : unit -> unit
(** Empty the log (used when the simulated machine is rebooted). *)

val count : level -> int
(** Number of retained messages at exactly [level]. *)

val set_timestamp_source : (unit -> int) -> unit
(** Install the virtual-clock reader used to timestamp messages. Called by
    {!Clock} at boot; exposed so the modules stay acyclic. *)
