module K = Decaf_kernel

type stats = {
  mutable kernel_user_calls : int;
  mutable c_java_calls : int;
  mutable bytes_marshaled : int;
  mutable failures : int;
  mutable retries : int;
  mutable lock_acquires : int;
  mutable lock_contended : int;
  mutable lock_spin_to_sem : int;
  mutable lock_wait_ns : int;
}

let counters =
  {
    kernel_user_calls = 0;
    c_java_calls = 0;
    bytes_marshaled = 0;
    failures = 0;
    retries = 0;
    lock_acquires = 0;
    lock_contended = 0;
    lock_spin_to_sem = 0;
    lock_wait_ns = 0;
  }

(* The lock columns mirror Kernel.Sync.Combolock's machine-wide totals;
   they are refreshed on every read so [stats]/[snapshot] always reflect
   the combolocks' current counters. *)
let refresh_lock_columns () =
  let t = K.Sync.Combolock.totals () in
  counters.lock_acquires <-
    t.K.Sync.Combolock.spin_acquires + t.K.Sync.Combolock.sem_acquires;
  counters.lock_contended <- t.K.Sync.Combolock.contended;
  counters.lock_spin_to_sem <- t.K.Sync.Combolock.spin_to_sem;
  counters.lock_wait_ns <- t.K.Sync.Combolock.wait_ns

(* A call whose target is the caller's own domain crosses nothing, so
   "no crossing" is the [None] of an option rather than a fourth crossing
   kind: once a [crossing] value is in hand, every consumer (the charge
   path, the failure message) is total over real boundaries and the
   compiler proves there is no dead same-domain branch to maintain. *)
type crossing = User_user | Kernel_user | Kernel_java

exception
  Xpc_failure of { boundary : string; attempts : int; context : string }

let crossing_between (a : Domain.t) (b : Domain.t) =
  match (a, b) with
  | Kernel, Kernel | Driver_lib, Driver_lib | Decaf_driver, Decaf_driver ->
      None
  | Driver_lib, Decaf_driver | Decaf_driver, Driver_lib -> Some User_user
  | Kernel, Driver_lib | Driver_lib, Kernel -> Some Kernel_user
  | Kernel, Decaf_driver | Decaf_driver, Kernel -> Some Kernel_java

let crossing_name = function
  | User_user -> "user/user"
  | Kernel_user -> "kernel/user"
  | Kernel_java -> "kernel/java"

let charge_kernel_user bytes =
  K.Sched.assert_may_block "XPC across the kernel/user boundary";
  counters.kernel_user_calls <- counters.kernel_user_calls + 1;
  counters.bytes_marshaled <- counters.bytes_marshaled + bytes;
  let ns =
    (2 * K.Cost.current.xpc_kernel_user_ns)
    + (2 * K.Cost.current.ctx_switch_ns)
    + (bytes * K.Cost.current.marshal_byte_ns)
  in
  Dispatch.charge ns

let charge_c_java bytes =
  counters.c_java_calls <- counters.c_java_calls + 1;
  counters.bytes_marshaled <- counters.bytes_marshaled + bytes;
  (* The calling thread is re-used within the process (§2.3), so there is
     no context switch; the data is unmarshaled in C and re-marshaled in
     Java, hence the second per-byte term (§4). *)
  let ns =
    (2 * K.Cost.current.xpc_c_java_ns)
    + (bytes * (K.Cost.current.marshal_byte_ns + K.Cost.current.remarshal_byte_ns))
  in
  Dispatch.charge ns

let direct = ref false
let set_direct_marshaling v = direct := v
let direct_marshaling () = !direct

(* Per-domain count of crossings currently executing in that domain.
   A user-level runtime services one XPC at a time, so asynchronous
   deliveries (the Batch flush worker) consult this to avoid entering a
   domain that is mid-call. Cleared on boot: a reboot tears down the
   scheduler with calls still nominally in flight, and a stale count
   must not make the next life's domains look permanently busy. *)
let in_flight_of = Domain.tabulate (fun _ -> ref 0)
let in_flight target = !(in_flight_of target)

let trace =
  Domain.tabulate (fun d -> K.Ktrace.Queue ("xpc:" ^ Domain.to_string d))

let charge b bytes =
  match b with
  | User_user -> charge_c_java bytes
  | Kernel_user -> charge_kernel_user bytes
  | Kernel_java when !direct ->
      (* data moves straight between nucleus and decaf driver: one
         crossing, one marshal pass *)
      charge_kernel_user bytes
  | Kernel_java ->
      charge_kernel_user bytes;
      charge_c_java bytes

(* What a worker lane runs for one crossing: charge the legs, then run
   [f] in the target domain. One per (crossing, target) pair, built
   once: a crossing hands its bytes and [f] to the lane instead of
   capturing them in a closure. *)
type body = { run : 'a. int -> (unit -> 'a) -> 'a }

let body =
  let per b =
    Domain.tabulate (fun target ->
        {
          run =
            (fun bytes f ->
              charge b bytes;
              Domain.with_domain target f);
        })
  in
  let uu = per User_user and ku = per Kernel_user and kj = per Kernel_java in
  function User_user -> uu | Kernel_user -> ku | Kernel_java -> kj

(* Admission first: the crossing's charges (and everything [f] does)
   are accounted to the worker lane that serves it. *)
let executing target b bytes f =
  (* Crossings into the same domain conflict (the one-at-a-time service
     gate below): a queue edge, so the exploration harness orders
     concurrent callers without subjecting the gate to the lockset
     check. *)
  K.Ktrace.note (trace target) K.Ktrace.Signal;
  let n = in_flight_of target in
  incr n;
  match Dispatch.with_worker ~target (body b target).run bytes f with
  | r ->
      decr n;
      r
  | exception e ->
      decr n;
      raise e

(* Every crossing carries a virtual deadline: an injected Xpc_timeout
   manifests as that deadline expiring with no reply. Idempotent calls
   are retried with capped exponential backoff before the failure is
   surfaced to the caller; anything with side effects fails fast. *)
let timeout_ns = 1_000_000
let latency = K.Latency.path "xpc.call"
let max_attempts = 3
let backoff_base_ns = 10_000
let backoff_cap_ns = 80_000

(* Returns once attempt [n] gets a reply. The fault site is built only
   when a plan is armed: with none, nothing can fire. *)
let rec await_reply ~context ~idempotent b n backoff =
  if
    K.Faultinject.active ()
    && K.Faultinject.fires ~site:("xpc." ^ context) K.Faultinject.Xpc_timeout
  then begin
    counters.failures <- counters.failures + 1;
    (* the call burned its whole deadline waiting for a reply *)
    Dispatch.charge timeout_ns;
    if idempotent && n < max_attempts then begin
      counters.retries <- counters.retries + 1;
      Dispatch.charge backoff;
      await_reply ~context ~idempotent b (n + 1)
        (min (backoff * 2) backoff_cap_ns)
    end
    else
      raise
        (Xpc_failure { boundary = crossing_name b; attempts = n; context })
  end

let call ~target ~payload_bytes ~reply_bytes ?(idempotent = false)
    ?(context = "call") f =
  match crossing_between (Domain.current ()) target with
  | None -> Domain.with_domain target f
  | Some b ->
      (* Call timeline: first attempt to successful completion, so burnt
         timeouts and retry backoffs show up in the tail instead of
         vanishing into counters. Failed calls never complete and are
         judged from [failures]. *)
      let born = K.Clock.now () in
      await_reply ~context ~idempotent b 1 backoff_base_ns;
      let r = executing target b (payload_bytes + reply_bytes) f in
      K.Clock.complete_since latency born;
      r

let stats () =
  refresh_lock_columns ();
  counters

let tracker_shards () = Objtracker.global_shard_stats ()

let reset_stats () =
  counters.kernel_user_calls <- 0;
  counters.c_java_calls <- 0;
  counters.bytes_marshaled <- 0;
  counters.failures <- 0;
  counters.retries <- 0;
  counters.lock_acquires <- 0;
  counters.lock_contended <- 0;
  counters.lock_spin_to_sem <- 0;
  counters.lock_wait_ns <- 0

(* Configuration is deliberately not part of [reset_stats]: clearing the
   counters between measurements must not flip the marshaling mode. *)
let () =
  K.Boot.on_reset @@ fun () ->
  reset_stats ();
  direct := false;
  List.iter
    (fun d -> in_flight_of d := 0)
    Domain.[ Kernel; Driver_lib; Decaf_driver ]

let snapshot () =
  refresh_lock_columns ();
  {
    kernel_user_calls = counters.kernel_user_calls;
    c_java_calls = counters.c_java_calls;
    bytes_marshaled = counters.bytes_marshaled;
    failures = counters.failures;
    retries = counters.retries;
    lock_acquires = counters.lock_acquires;
    lock_contended = counters.lock_contended;
    lock_spin_to_sem = counters.lock_spin_to_sem;
    lock_wait_ns = counters.lock_wait_ns;
  }
