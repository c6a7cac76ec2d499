module Waitq = struct
  type t = { trace : Ktrace.obj; q : (unit -> unit) Queue.t }

  let create ?(name = "waitq") () =
    {
      trace = Ktrace.Queue (name ^ "#" ^ string_of_int (Ktrace.fresh_id ()));
      q = Queue.create ();
    }

  (* Two notes per wait: entry (ordering against a wake that would have
     been lost had it come earlier) and resumption (the happens-before
     edge from the wake that actually fired). *)
  let wait t =
    Ktrace.note t.trace Ktrace.Wait;
    Sched.suspend ~register:(fun wake -> Queue.push wake t.q);
    Ktrace.note t.trace Ktrace.Wait

  let wake_one t =
    Ktrace.note t.trace Ktrace.Signal;
    match Queue.take_opt t.q with
    | Some wake ->
        wake ();
        true
    | None -> false

  let wake_all t =
    Ktrace.note t.trace Ktrace.Signal;
    let n = Queue.length t.q in
    Queue.iter (fun wake -> wake ()) t.q;
    Queue.clear t.q;
    n

  let waiters t = Queue.length t.q
end

module Spinlock = struct
  type t = {
    name : string;
    trace : Ktrace.obj;  (** trace identity: "spin:name#id" *)
    mutable held : bool;
    mutable irqsave : bool;
  }

  let create ?(name = "spinlock") () =
    {
      name;
      trace =
        Ktrace.Lock ("spin:" ^ name ^ "#" ^ string_of_int (Ktrace.fresh_id ()));
      held = false;
      irqsave = false;
    }

  let lock l =
    if l.held then
      Panic.bug "spinlock %s: deadlock (already held on this CPU)" l.name;
    Sched.spin_acquire ();
    Clock.consume Cost.current.spinlock_ns;
    l.held <- true;
    Ktrace.note l.trace Ktrace.Acquire

  let unlock l =
    if not l.held then Panic.bug "spinlock %s: unlock while not held" l.name;
    Ktrace.note l.trace Ktrace.Release;
    l.held <- false;
    Sched.spin_release ()

  let held l = l.held

  let with_lock l f =
    lock l;
    match f () with
    | v ->
        unlock l;
        v
    | exception e ->
        unlock l;
        raise e

  let lock_irqsave l =
    Sched.local_irq_save ();
    lock l;
    l.irqsave <- true

  let unlock_irqrestore l =
    if not l.irqsave then
      Panic.bug "spinlock %s: irqrestore without irqsave" l.name;
    l.irqsave <- false;
    unlock l;
    Sched.local_irq_restore ()
end

module Semaphore = struct
  type t = {
    name : string;
    sem_trace : Ktrace.obj;
    mutable count : int;
    waitq : Waitq.t;
  }

  let create ?(name = "sem") count =
    {
      name;
      sem_trace =
        Ktrace.Queue ("sem:" ^ name ^ "#" ^ string_of_int (Ktrace.fresh_id ()));
      count;
      waitq = Waitq.create ~name ();
    }

  (* Semaphores trace as queue edges, not locks: a plain counting
     semaphore is a synchronization channel, and the primitives built on
     top (Mutex, Combolock) add their own Lock identity so the
     lock-order check sees the logical lock, not its plumbing. *)
  let down s =
    Sched.assert_may_block ("down on semaphore " ^ s.name);
    Ktrace.note s.sem_trace Ktrace.Wait;
    Clock.consume Cost.current.semaphore_ns;
    while s.count = 0 do
      Waitq.wait s.waitq
    done;
    s.count <- s.count - 1

  let up s =
    Ktrace.note s.sem_trace Ktrace.Signal;
    s.count <- s.count + 1;
    ignore (Waitq.wake_one s.waitq)

  let count s = s.count
end

module Mutex = struct
  type t = { sem : Semaphore.t; trace : Ktrace.obj; mutable owner : string option }

  let create ?(name = "mutex") () =
    {
      sem = Semaphore.create ~name 1;
      trace =
        Ktrace.Lock ("mutex:" ^ name ^ "#" ^ string_of_int (Ktrace.fresh_id ()));
      owner = None;
    }

  let lock m =
    if m.owner = Some (Sched.current_name ()) then
      Panic.bug "mutex %s: recursive lock by %s" m.sem.Semaphore.name
        (Sched.current_name ());
    Semaphore.down m.sem;
    m.owner <- Some (Sched.current_name ());
    Ktrace.note m.trace Ktrace.Acquire

  let unlock m =
    if m.owner = None then
      Panic.bug "mutex %s: unlock while not held" m.sem.Semaphore.name;
    Ktrace.note m.trace Ktrace.Release;
    m.owner <- None;
    Semaphore.up m.sem

  let held m = m.owner <> None

  let with_lock m f =
    lock m;
    match f () with
    | v ->
        unlock m;
        v
    | exception e ->
        unlock m;
        raise e
end

module Completion = struct
  type t = { mutable completions : int; mutable forever : bool; waitq : Waitq.t }

  let create () = { completions = 0; forever = false; waitq = Waitq.create () }

  let wait c =
    while c.completions = 0 && not c.forever do
      Waitq.wait c.waitq
    done;
    if not c.forever then c.completions <- c.completions - 1

  let complete c =
    c.completions <- c.completions + 1;
    ignore (Waitq.wake_one c.waitq)

  let complete_all c =
    c.forever <- true;
    ignore (Waitq.wake_all c.waitq)

  let done_ c = c.forever || c.completions > 0
end

module Combolock = struct
  type stats = {
    mutable spin_acquires : int;
    mutable sem_acquires : int;
    mutable contended : int;
    mutable spin_to_sem : int;
    mutable wait_ns : int;
  }

  type holder = No_one | Kernel_spin | Kernel_sem | User

  type t = {
    name : string;
    trace : Ktrace.obj;  (** trace identity: "combo:name#id" *)
    sem : Semaphore.t;
    mutable holder : holder;
    mutable user_waiters : int;
    stats : stats;
  }

  let fresh_stats () =
    {
      spin_acquires = 0;
      sem_acquires = 0;
      contended = 0;
      spin_to_sem = 0;
      wait_ns = 0;
    }

  (* Machine-wide contention totals across every combolock, so Channel
     can report lock behaviour without holding a reference to each
     driver's locks. *)
  let totals_v = fresh_stats ()

  let totals () =
    {
      spin_acquires = totals_v.spin_acquires;
      sem_acquires = totals_v.sem_acquires;
      contended = totals_v.contended;
      spin_to_sem = totals_v.spin_to_sem;
      wait_ns = totals_v.wait_ns;
    }

  let reset_totals () =
    totals_v.spin_acquires <- 0;
    totals_v.sem_acquires <- 0;
    totals_v.contended <- 0;
    totals_v.spin_to_sem <- 0;
    totals_v.wait_ns <- 0

  (* Xpc.Dispatch registers here so virtual time a worker spends blocked
     on a combolock counts against that worker's lane, not the whole
     machine. *)
  let wait_observer : (int -> unit) option ref = ref None
  let set_wait_observer f = wait_observer := Some f

  let create ?(name = "combolock") () =
    {
      name;
      trace =
        Ktrace.Lock ("combo:" ^ name ^ "#" ^ string_of_int (Ktrace.fresh_id ()));
      sem = Semaphore.create ~name 1;
      holder = No_one;
      user_waiters = 0;
      stats = fresh_stats ();
    }

  (* Semaphore acquisition with contention accounting: [contended] when
     the semaphore was unavailable at entry, [wait_ns] the virtual time
     blocked beyond the semaphore operation's own cost. *)
  let sem_down l =
    let was_contended = Semaphore.count l.sem = 0 in
    if was_contended then begin
      l.stats.contended <- l.stats.contended + 1;
      totals_v.contended <- totals_v.contended + 1
    end;
    let t0 = Clock.now () in
    Semaphore.down l.sem;
    let waited = Clock.now () - t0 - Cost.current.semaphore_ns in
    if waited > 0 then begin
      l.stats.wait_ns <- l.stats.wait_ns + waited;
      totals_v.wait_ns <- totals_v.wait_ns + waited;
      match !wait_observer with Some f -> f waited | None -> ()
    end

  let lock_kernel l =
    match l.holder with
    | No_one when l.user_waiters = 0 ->
        (* Kernel-only: spinlock behaviour. *)
        Sched.spin_acquire ();
        Clock.consume Cost.current.spinlock_ns;
        l.holder <- Kernel_spin;
        l.stats.spin_acquires <- l.stats.spin_acquires + 1;
        totals_v.spin_acquires <- totals_v.spin_acquires + 1;
        Ktrace.note l.trace Ktrace.Acquire
    | Kernel_spin ->
        Panic.bug "combolock %s: kernel spin deadlock" l.name
    | No_one | Kernel_sem | User ->
        (* The spin fast path is unavailable: semaphore acquisition.
           [spin_to_sem] counts only the crossings forced by user level
           holding or waiting — kernel-kernel contention on the
           semaphore (holder already [Kernel_sem], no user waiters) is
           ordinary blocking, not user interference. *)
        l.stats.sem_acquires <- l.stats.sem_acquires + 1;
        totals_v.sem_acquires <- totals_v.sem_acquires + 1;
        if l.holder = User || l.user_waiters > 0 then begin
          l.stats.spin_to_sem <- l.stats.spin_to_sem + 1;
          totals_v.spin_to_sem <- totals_v.spin_to_sem + 1
        end;
        sem_down l;
        l.holder <- Kernel_sem;
        Ktrace.note l.trace Ktrace.Acquire

  let unlock_kernel l =
    match l.holder with
    | Kernel_spin ->
        Ktrace.note l.trace Ktrace.Release;
        l.holder <- No_one;
        Sched.spin_release ()
    | Kernel_sem ->
        Ktrace.note l.trace Ktrace.Release;
        l.holder <- No_one;
        Semaphore.up l.sem
    | No_one | User ->
        Panic.bug "combolock %s: kernel unlock while not kernel-held" l.name

  let lock_user l =
    l.user_waiters <- l.user_waiters + 1;
    l.stats.sem_acquires <- l.stats.sem_acquires + 1;
    totals_v.sem_acquires <- totals_v.sem_acquires + 1;
    sem_down l;
    l.user_waiters <- l.user_waiters - 1;
    l.holder <- User;
    Ktrace.note l.trace Ktrace.Acquire

  let unlock_user l =
    match l.holder with
    | User ->
        Ktrace.note l.trace Ktrace.Release;
        l.holder <- No_one;
        Semaphore.up l.sem
    | No_one | Kernel_spin | Kernel_sem ->
        Panic.bug "combolock %s: user unlock while not user-held" l.name

  let with_kernel l f =
    lock_kernel l;
    match f () with
    | v ->
        unlock_kernel l;
        v
    | exception e ->
        unlock_kernel l;
        raise e

  let with_user l f =
    lock_user l;
    match f () with
    | v ->
        unlock_user l;
        v
    | exception e ->
        unlock_user l;
        raise e

  let stats l = l.stats
end
