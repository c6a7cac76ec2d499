module K = Decaf_kernel

(* One virtual runtime worker. [busy_ns] accumulates the crossing,
   marshal, lookup and lock-wait nanoseconds of the upcalls this worker
   served; lanes fill independently, so the pool's critical path is the
   busiest lane, not the sum. *)
type lane = {
  owner : Domain.t;
  mutable busy_ns : int;
  mutable served : int;
  latency : K.Latency.t;
      (* submit-to-complete timelines of the crossings this lane served,
         admission wait included; merge the pool's lanes for the domain
         view ([K.Latency.merged]) *)
}

type pool = {
  dom : Domain.t;
  lanes : lane array;
  waitq : K.Sync.Waitq.t;
  mutable active : int;
  mutable admissions : int;
  mutable blocked_acquires : int;
  mutable forced : int;
  mutable queue_wait_ns : int;
}

type pool_stats = {
  domain : Domain.t;
  workers : int;
  admissions : int;  (** upcalls admitted to the pool *)
  blocked_acquires : int;  (** admissions that waited for a free worker *)
  forced : int;  (** atomic-context admissions that oversubscribed *)
  queue_wait_ns : int;  (** virtual ns spent waiting for a worker *)
  lane_busy_ns : int array;
  lane_served : int array;
  lane_latency : K.Latency.t array;
  critical_path_ns : int;  (** busiest lane: the pool's wall-clock cost *)
}

let workers_v = ref 1
let set_workers n = workers_v := max 1 n
let workers () = !workers_v

(* Pools belong to one machine lifetime: dropped on boot, like the Batch
   flush infrastructure. Only the user domains get one, and they are
   listed in this order. *)
let user_domains = [ Domain.Driver_lib; Domain.Decaf_driver ]
let pool_of = Domain.tabulate (fun _ -> ref None)

(* Lane histograms outlive their pools: 2,880 buckets each, they would
   go straight to the major heap on every boot. A fresh pool clears as
   many as it has lanes, in place, and only a wider pool allocates. *)
let lane_hists = Domain.tabulate (fun _ -> ref [||])

let fresh_hists dom n =
  let have = !(lane_hists dom) in
  if Array.length have < n then
    lane_hists dom :=
      Array.init n (fun i ->
          if i < Array.length have then have.(i) else K.Latency.create ());
  let hists = !(lane_hists dom) in
  for i = 0 to n - 1 do
    K.Latency.clear hists.(i)
  done;
  hists

let latency = K.Latency.path "xpc.dispatch"

(* The lane serving the crossing each simulated thread is executing,
   indexed by Sched tid ([off_lane] when none): threads suspend
   mid-crossing (slot waits, combolock semaphores, driver sleeps), so a
   process-global binding would leak one thread's lane into whatever runs
   while it is blocked. [credit] adds to the calling thread's lane;
   combolock waits arrive here through the observer registered below.
   [off_lane] is the account of every charge made while no worker serves
   the thread: kernel-side guard checks, ring slot writes, tracker
   lookups and lock waits, timeouts before admission. *)
let off_lane =
  { owner = Kernel; busy_ns = 0; served = 0; latency = K.Latency.create () }

let lane_by_tid = ref (Array.make 64 off_lane)

let serving_lane () =
  let tid = K.Sched.current_tid () in
  let a = !lane_by_tid in
  if tid < Array.length a then a.(tid) else off_lane

let bind tid lane =
  let a = !lane_by_tid in
  if tid >= Array.length a then
    lane_by_tid :=
      Array.init (2 * tid) (fun i ->
          if i < Array.length a then a.(i) else off_lane);
  !lane_by_tid.(tid) <- lane

let () =
  K.Boot.on_reset @@ fun () ->
  List.iter (fun d -> pool_of d := None) user_domains;
  (* Sched.reset restarts tids at 1 after a reboot: bindings from the old
     life's threads must not leak lanes onto the new life's. *)
  Array.fill !lane_by_tid 0 (Array.length !lane_by_tid) off_lane;
  off_lane.busy_ns <- 0;
  workers_v := 1

let pool_for dom =
  match !(pool_of dom) with
  | Some p when Array.length p.lanes = !workers_v -> p
  | Some p when p.active > 0 || K.Sync.Waitq.waiters p.waitq > 0 ->
      (* A width change must not strand in-flight crossings on an
         abandoned pool (their release would decrement a stale [active]
         and wake a stale waitq while new admissions race a fresh pool).
         Keep serving at the old width until the pool drains; the next
         admission against an idle pool picks up the new width. *)
      p
  | _ ->
      let hists = fresh_hists dom !workers_v in
      let p =
        {
          dom;
          lanes =
            Array.init !workers_v (fun i ->
                { owner = dom; busy_ns = 0; served = 0; latency = hists.(i) });
          waitq = K.Sync.Waitq.create ~name:"dispatch-slots" ();
          active = 0;
          admissions = 0;
          blocked_acquires = 0;
          forced = 0;
          queue_wait_ns = 0;
        }
      in
      pool_of dom := Some p;
      p

let credit ns =
  let l = serving_lane () in
  l.busy_ns <- l.busy_ns + ns

(* Consume first: due events fire inside [consume], and the lane is the
   one serving the thread once they have run. *)
let charge ns =
  K.Clock.consume ns;
  credit ns

let () = K.Sync.Combolock.set_wait_observer credit

let least_busy lanes =
  let best = ref lanes.(0) in
  for i = 1 to Array.length lanes - 1 do
    if lanes.(i).busy_ns < !best.busy_ns then best := lanes.(i)
  done;
  !best

(* Unbind the lane, free the slot, and stamp dispatch-complete: per lane
   and on the machine-wide "xpc.dispatch" path. *)
let release p tid prev lane submitted =
  bind tid prev;
  p.active <- p.active - 1;
  let dt = Int.max 0 (K.Clock.now () - submitted) in
  K.Latency.observe lane.latency dt;
  K.Latency.observe_at latency dt;
  ignore (K.Sync.Waitq.wake_one p.waitq)

let with_worker ~target f a b =
  if not (Domain.is_user target) then f a b
  else
    match serving_lane () with
    | l when l.owner = target ->
        (* Nested crossing into the domain whose worker this thread
           already is: stay on our lane rather than deadlocking on our
           own slot. Other threads crossing into the same domain have no
           binding for their own tid and go through admission. *)
        f a b
    | prev ->
        (* Submit stamp: the crossing's timeline starts here, so the
           recorded latency covers admission wait (blocked slot acquire)
           as well as the dispatched body. *)
        let submitted = K.Clock.now () in
        let p = pool_for target in
        p.admissions <- p.admissions + 1;
        if p.active >= Array.length p.lanes then begin
          if K.Sched.in_interrupt () || K.Sched.spin_depth () > 0 then
            (* Cannot block in atomic context: oversubscribe and record
               that the pool was overrun. *)
            p.forced <- p.forced + 1
          else begin
            p.blocked_acquires <- p.blocked_acquires + 1;
            let t0 = K.Clock.now () in
            while p.active >= Array.length p.lanes do
              K.Sync.Waitq.wait p.waitq
            done;
            p.queue_wait_ns <- p.queue_wait_ns + (K.Clock.now () - t0)
          end
        end;
        p.active <- p.active + 1;
        let lane = least_busy p.lanes in
        (* Dispatch admission is consumed on the global clock like every
           other charge that lands in a lane, keeping the invariant the
           overlap model depends on: lane ns are a subset of elapsed ns.
           It goes to the chosen lane, which is bound only below. *)
        K.Clock.consume K.Cost.current.xpc_dispatch_ns;
        lane.busy_ns <- lane.busy_ns + K.Cost.current.xpc_dispatch_ns;
        lane.served <- lane.served + 1;
        let tid = K.Sched.current_tid () in
        bind tid lane;
        match f a b with
        | r ->
            release p tid prev lane submitted;
            r
        | exception e ->
            release p tid prev lane submitted;
            raise e

let critical_path p = Array.fold_left (fun m l -> max m l.busy_ns) 0 p.lanes

let live_pools () = List.filter_map (fun d -> !(pool_of d)) user_domains

(* Off-lane time is serial: no worker overlaps it. *)
let overhead_ns () =
  List.fold_left
    (fun acc p -> acc + critical_path p)
    off_lane.busy_ns (live_pools ())

let overlap_saved_ns () =
  List.fold_left
    (fun acc p ->
      let total = Array.fold_left (fun a l -> a + l.busy_ns) 0 p.lanes in
      acc + (total - critical_path p))
    0 (live_pools ())

let pool_stats () =
  List.map
    (fun p ->
      {
        domain = p.dom;
        workers = Array.length p.lanes;
        admissions = p.admissions;
        blocked_acquires = p.blocked_acquires;
        forced = p.forced;
        queue_wait_ns = p.queue_wait_ns;
        lane_busy_ns = Array.map (fun l -> l.busy_ns) p.lanes;
        lane_served = Array.map (fun l -> l.served) p.lanes;
        lane_latency = Array.map (fun l -> l.latency) p.lanes;
        critical_path_ns = critical_path p;
      })
    (live_pools ())
