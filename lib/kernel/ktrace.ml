(* Execution-trace instrumentation for the systematic-exploration
   harness (Decaf_check). The synchronization primitives, the interrupt
   layer and the XPC machinery report the objects each scheduler step
   touches through [note]; the checker derives its happens-before /
   dependency relation, lockset race reports and lock-order graph from
   exactly these events. With no hook installed every call is a single
   ref read, so production runs and benchmarks pay nothing.

   Object identity only has to be unique within one execution (traces
   are never compared across executions by object), so locks stamp
   themselves with [fresh_id] at creation and render as "kind:name#id". *)

type obj =
  | Lock of string  (** mutual exclusion: spin/mutex/combo, "kind:name#id" *)
  | Var of string  (** plain shared state, subject to the lockset check *)
  | Queue of string  (** signal/wait edges: waitqs, batch queues, rings *)
  | Irq_line of int  (** interrupt line assertion/delivery/mask state *)

type access =
  | Acquire
  | Release
  | Read
  | Write
  | Signal  (** producer side of a queue-like object *)
  | Wait  (** consumer side of a queue-like object *)

let obj_name = function
  | Lock s -> "lock:" ^ s
  | Var s -> "var:" ^ s
  | Queue s -> "queue:" ^ s
  | Irq_line n -> Printf.sprintf "irq:%d" n

let access_name = function
  | Acquire -> "acquire"
  | Release -> "release"
  | Read -> "read"
  | Write -> "write"
  | Signal -> "signal"
  | Wait -> "wait"

(* Two accesses to the same object commute unless one of them changes
   what the other observes. Everything on locks, queues and irq lines is
   ordering-sensitive; only Read/Read commutes on plain state. *)
let dependent_access a b =
  match (a, b) with Read, Read -> false | _ -> true

let hook : (obj -> access -> unit) option ref = ref None
let active () = !hook <> None
let set_hook f = hook := Some f
let clear_hook () = hook := None

(* Every caller passes an object its owner built once (a lock, waitq,
   irq line, ring, batch queue, channel or binding), so a note with no
   hook allocates nothing. *)
let note o a = match !hook with Some f -> f o a | None -> ()

(* Creation-time stamps for lock identity; never reset — only
   within-execution uniqueness matters and the counter cannot wrap in
   practice. *)
let ids = ref 0

let fresh_id () =
  incr ids;
  !ids
