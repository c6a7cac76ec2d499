(* Unit and property tests for the simulated kernel substrate. *)

open Decaf_kernel

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Boot the machine, run [main] as the first thread, drive the simulation
   to completion, and return [main]'s result. *)
let run_sim ?until_ns main =
  Boot.boot ();
  let result = ref None in
  ignore (Sched.spawn ~name:"main" (fun () -> result := Some (main ())));
  Sched.run ?until_ns ();
  match !result with
  | Some v -> v
  | None -> Alcotest.fail "main thread did not complete"

(* --- Clock --- *)

let test_clock_consume () =
  Boot.boot ();
  Clock.consume 1_000;
  check "now" 1_000 (Clock.now ());
  check "busy" 1_000 (Clock.busy_ns ())

let test_clock_event_order () =
  Boot.boot ();
  let log = ref [] in
  ignore (Clock.at 300 (fun () -> log := 3 :: !log));
  ignore (Clock.at 100 (fun () -> log := 1 :: !log));
  ignore (Clock.at 200 (fun () -> log := 2 :: !log));
  Clock.consume 250;
  Alcotest.(check (list int)) "first two fired in order" [ 2; 1 ] !log;
  Clock.consume 100;
  Alcotest.(check (list int)) "all fired" [ 3; 2; 1 ] !log

let test_clock_cancel () =
  Boot.boot ();
  let fired = ref false in
  let ev = Clock.after 100 (fun () -> fired := true) in
  check_bool "pending" true (Clock.pending ev);
  Clock.cancel ev;
  Clock.consume 200;
  check_bool "cancelled event did not fire" false !fired

let test_clock_event_reschedules () =
  Boot.boot ();
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then ignore (Clock.after 10 tick)
  in
  ignore (Clock.after 10 tick);
  Clock.consume 1_000;
  check "recurring event" 5 !count

let test_clock_utilization () =
  Boot.boot ();
  let since = Clock.now () and busy_since = Clock.busy_ns () in
  Clock.consume 300;
  ignore (Clock.after 700 ignore);
  ignore (Clock.advance_to_next_event ());
  let u = Clock.utilization ~since ~busy_since in
  Alcotest.(check (float 0.001)) "30% busy" 0.3 u

(* Same-due-time events deliver in schedule order: the heap key
   tie-breaks on the monotone sequence number, so two timers armed for
   the same instant cannot swap — including one armed from inside an
   earlier event's callback. *)
let test_clock_same_due_fifo () =
  Boot.boot ();
  let log = ref [] in
  List.iter
    (fun i -> ignore (Clock.at 100 (fun () -> log := i :: !log)))
    [ 1; 2; 3 ];
  ignore
    (Clock.at 50 (fun () ->
         ignore (Clock.at 100 (fun () -> log := 4 :: !log))));
  Clock.consume 200;
  Alcotest.(check (list int)) "FIFO at equal due time" [ 1; 2; 3; 4 ]
    (List.rev !log);
  (* and through the advance/deliver path, not just consume *)
  Boot.boot ();
  let log = ref [] in
  ignore (Clock.after 10 (fun () -> log := 1 :: !log));
  ignore (Clock.after 10 (fun () -> log := 2 :: !log));
  ignore (Clock.advance_to_next_event ());
  Alcotest.(check (list int)) "advance keeps FIFO" [ 1; 2 ] (List.rev !log)

(* An id held from before [reset] (a hardware model's stale timer) is
   no longer pending and can never cancel a fresh event, even one that
   sits where the stale one did in the queue. *)
let test_clock_stale_id_across_reset () =
  Boot.boot ();
  let stale = Clock.after 100 ignore in
  Boot.boot ();
  let fired = ref false in
  let fresh = Clock.after 100 (fun () -> fired := true) in
  check_bool "stale id no longer pending" false (Clock.pending stale);
  Clock.cancel stale;
  check_bool "cancel of stale id leaves fresh event armed" true
    (Clock.pending fresh);
  Clock.consume 200;
  check_bool "fresh event fired" true !fired

(* Growing the slab keeps every id apart: ids issued before a growth
   and before a reboot stay dead, and cancelling them never touches the
   fresh events that reuse their slots. *)
let test_clock_growth_stale_ids () =
  Boot.boot ();
  let fired = ref 0 in
  let bump () = incr fired in
  let old = Array.init 1_000 (fun i -> Clock.after (1 + i) bump) in
  Array.iteri (fun i id -> if i mod 2 = 0 then Clock.cancel id) old;
  check_bool "cancelled ids are not pending" false (Clock.pending old.(0));
  check_bool "others still pending" true (Clock.pending old.(1));
  Boot.boot ();
  let fresh = Array.init 1_000 (fun i -> Clock.after (1 + i) bump) in
  check_bool "no id from before the reboot is pending" false
    (Array.exists Clock.pending old);
  Array.iter Clock.cancel old;
  check_bool "stale cancels left every fresh event armed" true
    (Array.for_all Clock.pending fresh);
  Clock.consume 2_000;
  check "every fresh event fired" 1_000 !fired;
  check_bool "the queue is empty" false (Clock.has_events ())

(* A deep heap with interior cancels: 1,000 events over a fixed
   permutation of due times, every third one cancelled. Removing an
   interior entry moves the last entry into its place, up or down, so
   the survivors fire in (due, seq) order only if both directions and
   the child pick are right. *)
let test_clock_deep_heap_cancels () =
  Boot.boot ();
  let log = ref [] in
  let due i = 1 + (i * 7_919 mod 1_009) in
  let ids =
    Array.init 1_000 (fun i ->
        Clock.at (due i) (fun () -> log := (Clock.now (), i) :: !log))
  in
  Array.iteri (fun i id -> if i mod 3 = 0 then Clock.cancel id) ids;
  Clock.consume 2_000;
  let expected =
    List.init 1_000 Fun.id
    |> List.filter (fun i -> i mod 3 <> 0)
    |> List.map (fun i -> (due i, i))
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int)))
    "survivors fire in due order, at their due time" expected (List.rev !log)

(* Ties deep in the heap: 600 events over 3 due values, some cancelled.
   Many sibling pairs share a due time, so the child pick must fall back
   to seq, or events of one due time fire out of scheduling order. *)
let test_clock_deep_ties () =
  Boot.boot ();
  let log = ref [] in
  let due i = 100 * (1 + (i * 5 mod 3)) in
  let ids =
    Array.init 600 (fun i -> Clock.at (due i) (fun () -> log := i :: !log))
  in
  Array.iteri (fun i id -> if i mod 7 = 3 then Clock.cancel id) ids;
  (* fire the first due time, then cancel two entries deep in the rest *)
  ignore (Clock.advance_to_next_event ());
  let late = [ 299; 301 ] in
  List.iter (fun i -> Clock.cancel ids.(i)) late;
  Clock.consume 1_000;
  let expected =
    List.init 600 Fun.id
    |> List.filter (fun i -> i mod 7 <> 3 && not (List.mem i late))
    |> List.stable_sort (fun a b -> compare (due a) (due b))
  in
  Alcotest.(check (list int))
    "each due time fires in scheduling order" expected (List.rev !log)

let nop () = ()

(* Allocation regression: with 512 events pending, scheduling one more
   and firing or cancelling it allocates nothing. The queue is a slab of
   int arrays that only grows by doubling; the callback here is a
   static closure, so a round allocates no word at all. *)
let test_clock_alloc () =
  Boot.boot ();
  for i = 1 to 512 do
    ignore (Clock.after (1_000_000_000 + i) nop)
  done;
  let rounds = 1_000 in
  let words_per_round f =
    let w0 = Gc.minor_words () in
    for _ = 1 to rounds do
      f ()
    done;
    (Gc.minor_words () -. w0) /. float_of_int rounds
  in
  let fire =
    words_per_round (fun () ->
        ignore (Clock.after 10 nop);
        Clock.consume 10)
  in
  let cancel = words_per_round (fun () -> Clock.cancel (Clock.after 10 nop)) in
  check_bool
    (Printf.sprintf "after+fire: %.1f words <= 1" fire)
    true (fire <= 1.);
  check_bool
    (Printf.sprintf "after+cancel: %.1f words <= 1" cancel)
    true (cancel <= 1.)

(* --- tracked events (the latency cost model's stamp points) --- *)

let test_clock_tracked_events () =
  Boot.boot ();
  let explicit = Latency.path "t.explicit" and span = Latency.path "t.span" in
  let born = Clock.now () in
  Clock.consume 250;
  Clock.complete_since explicit born;
  check "observation landed in the path's histogram" 1
    (Option.fold ~none:0 ~some:Latency.count (Latency.find "t.explicit"));
  check "the sample is the elapsed 250 ns" 250
    (Option.fold ~none:0 ~some:Latency.sum_ns (Latency.find "t.explicit"));
  Clock.track_begin span;
  Clock.consume 100;
  Clock.track_begin span;
  Clock.consume 50;
  Alcotest.(check (option int))
    "first end pairs the oldest birth" (Some 150) (Clock.track_end span);
  Alcotest.(check (option int))
    "second end pairs the newer birth" (Some 50) (Clock.track_end span);
  Alcotest.(check (option int))
    "unmatched end is a no-op" None (Clock.track_end span);
  Clock.track_begin span;
  Clock.track_drain span;
  Alcotest.(check (option int))
    "drain orphans outstanding births" None (Clock.track_end span)

(* --- Latency histograms --- *)

(* Values below 64 ns land in exact unit buckets, and the bucket ranges
   tile the whole domain with no gap or overlap. *)
let test_latency_bucket_exactness () =
  for v = 0 to 63 do
    Alcotest.(check (pair int int))
      "unit bucket is exact" (v, v)
      (Latency.bucket_bounds (Latency.bucket_index v))
  done;
  let prev_high = ref (-1) in
  for idx = 0 to Latency.num_buckets - 1 do
    let lo, hi = Latency.bucket_bounds idx in
    check "buckets are contiguous" (!prev_high + 1) lo;
    check_bool "bounds ordered" true (hi >= lo);
    check "low bound maps to its bucket" idx (Latency.bucket_index lo);
    check "high bound maps to its bucket" idx (Latency.bucket_index hi);
    prev_high := hi
  done

let test_latency_percentiles_small () =
  let h = Latency.create () in
  List.iter (Latency.observe h) [ 10; 20; 30; 40; 1_000 ];
  check "count" 5 (Latency.count h);
  check "p50 of five samples is the third" 30 (Latency.percentile h 0.5);
  (* the p999 rank rounds up to the last sample, reported at the true
     maximum rather than a bucket bound *)
  check "p999 of five samples is the max" 1_000 (Latency.percentile h 0.999);
  check "p0+ is the min" 10 (Latency.percentile h 0.001)

let test_latency_merge () =
  (* two per-lane histograms merge into the pool-wide distribution *)
  let a = Latency.create () and b = Latency.create () in
  for i = 1 to 100 do
    Latency.observe a i
  done;
  for i = 101 to 200 do
    Latency.observe b i
  done;
  let m = Latency.merged [ a; b ] in
  check "merged count" 200 (Latency.count m);
  check "merged p50 straddles the lanes" 100 (Latency.percentile m 0.5);
  check "merged max" 200 (Latency.max_ns m);
  check "merged min" 1 (Latency.min_ns m);
  check "sources untouched" 100 (Latency.count a)

let test_latency_overflow () =
  let h = Latency.create () in
  Latency.observe h max_int;
  Latency.observe h 5;
  check "count includes the overflow sample" 2 (Latency.count h);
  check "overflow accounted separately" 1 (Latency.overflow_count h);
  check "median unaffected" 5 (Latency.percentile h 0.5);
  check "tail reports the true max" max_int (Latency.percentile h 0.999)

(* A path handle outlives reboots: [reset] unlists it and zeroes its
   histogram in place, and its next observation lists it again with
   only the new sample. *)
let test_latency_path_across_reset () =
  Boot.boot ();
  let p = Latency.path "t.handle" in
  check_bool "same name, same handle" true (Latency.path "t.handle" == p);
  Latency.observe_at p 100;
  Latency.observe_at p 200;
  check_bool "listed once observed" true
    (List.mem "t.handle" (Latency.paths ()));
  Latency.reset ();
  check_bool "unlisted after reset" false
    (List.mem "t.handle" (Latency.paths ()));
  check_bool "not found after reset" true (Latency.find "t.handle" = None);
  Latency.observe_at p 7;
  match Latency.find "t.handle" with
  | None -> Alcotest.fail "re-observed path is not listed"
  | Some h ->
      check "only the new sample" 1 (Latency.count h);
      check "its value" 7 (Latency.max_ns h);
      check_bool "listed again" true (List.mem "t.handle" (Latency.paths ()))

let test_latency_interned_unobserved () =
  Boot.boot ();
  ignore (Latency.path "t.never");
  check_bool "an interned path is not listed" false
    (List.mem "t.never" (Latency.paths ()));
  check_bool "nor found" true (Latency.find "t.never" = None)

let test_latency_observe_at_alloc () =
  Boot.boot ();
  let p = Latency.path "t.alloc" in
  Latency.observe_at p 1 (* first observation allocates the histogram *);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    Latency.observe_at p (i * 37)
  done;
  let words = Gc.minor_words () -. w0 in
  check_bool (Printf.sprintf "observe_at: %.0f words = 0" words) true (words = 0.)

(* --- Klog --- *)

(* Messages at chosen virtual times, in every conversion the kernel's
   call sites use (%s, %d, %04x, %.3f) and at every level; the rendered
   lines are pinned byte for byte. *)
let dmesg_golden =
  [
    "<INFO>[  0.000000] net eth0: registered";
    "<WARN>[  0.000001] pci 0000:00:03.0: probe by e1000 failed (errno -19)";
    "<INFO>[  1.234568] hotplug: pci 0000:00:04.0 added (8086:100e)";
    "<INFO>[  1.234568] module e1000 loaded in 1.234 ms";
    "<ERR>[ 59.999999] module uhci-hcd failed to load: errno 12";
    "<EMERG>[1000.000000] supervisor e1000: decaf fault: timeout";
    "<DEBUG>[12345.678901] xpc-ring: e1000 full at depth 256, dropping record kind 1";
  ]

let test_dmesg_golden () =
  Boot.boot ();
  let at ns = Clock.consume (ns - Clock.now ()) in
  Klog.printk Klog.Info "net %s: registered" "eth0";
  at 1_499;
  Klog.printk Klog.Warning "pci %s: probe by %s failed (errno %d)"
    "0000:00:03.0" "e1000" (-19);
  at 1_234_567_890;
  Klog.printk Klog.Info "hotplug: %s %s added (%04x:%04x)" "pci"
    "0000:00:04.0" 0x8086 0x100e;
  Klog.printk Klog.Info "module %s loaded in %.3f ms" "e1000" 1.2344;
  at 59_999_999_499;
  Klog.printk Klog.Err "module %s failed to load: errno %d" "uhci-hcd" 12;
  at 999_999_999_999;
  Klog.printk Klog.Emerg "supervisor %s: decaf fault: %s" "e1000" "timeout";
  at 12_345_678_901_234;
  Klog.printk Klog.Debug
    "xpc-ring: %s full at depth %d, dropping record kind %d" "e1000" 256 1;
  Alcotest.(check (list string)) "rendered lines" dmesg_golden (Klog.dmesg ())

(* The ring keeps the newest 16,384 messages; [count] sees only those. *)
let test_klog_eviction () =
  Boot.boot ();
  let level i =
    match i mod 3 with 0 -> Klog.Info | 1 -> Klog.Warning | _ -> Klog.Err
  in
  let total = 16_384 + 5 in
  for i = 0 to total - 1 do
    Klog.printk (level i) "message %d" i
  done;
  let lines = Klog.dmesg () in
  check "capacity retained" 16_384 (List.length lines);
  Alcotest.(check string) "the five oldest were evicted"
    "<ERR>[  0.000000] message 5" (List.hd lines);
  Alcotest.(check string) "the newest is last"
    "<ERR>[  0.000000] message 16388" (List.nth lines 16_383);
  let retained l =
    List.length
      (List.filter (fun i -> level i = l) (List.init 16_384 (fun i -> i + 5)))
  in
  List.iter
    (fun l -> check "count per level" (retained l) (Klog.count l))
    [ Klog.Info; Klog.Warning; Klog.Err ];
  check "no debug messages" 0 (Klog.count Klog.Debug);
  Klog.clear ();
  check "cleared" 0 (List.length (Klog.dmesg ()))

(* Allocation regression: a two-argument message is formatted once,
   with Printf, into plain text; the timestamp stays an int until
   [dmesg]. *)
let test_printk_alloc () =
  Boot.boot ();
  let log () =
    Klog.printk Klog.Info "pci %s: bound to driver %s" "0000:00:03.0" "e1000"
  in
  for _ = 1 to 100 do
    log ()
  done;
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    log ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check_bool (Printf.sprintf "printk: %.1f words per message <= 78" words) true
    (words <= 78.)

(* --- Scheduler --- *)

let test_sched_yield_interleaves () =
  let log = ref [] in
  let body tag () =
    for _ = 1 to 3 do
      log := tag :: !log;
      Sched.yield ()
    done
  in
  run_sim (fun () ->
      ignore (Sched.spawn ~name:"a" (body "a"));
      ignore (Sched.spawn ~name:"b" (body "b")));
  (* run_sim's main exits first; a and b then alternate. *)
  Sched.run ();
  Alcotest.(check (list string))
    "interleaved" [ "b"; "a"; "b"; "a"; "b"; "a" ] !log

let test_sched_sleep_orders_by_time () =
  Boot.boot ();
  let log = ref [] in
  let sleeper tag ns () =
    Sched.sleep_ns ns;
    log := tag :: !log
  in
  ignore (Sched.spawn (sleeper "late" 2_000_000));
  ignore (Sched.spawn (sleeper "early" 500_000));
  Sched.run ();
  Alcotest.(check (list string)) "wakeup order" [ "late"; "early" ] !log;
  check_bool "clock advanced" true (Clock.now () >= 2_000_000)

let test_sched_suspend_wake () =
  Boot.boot ();
  let wake_fn = ref ignore in
  let woke = ref false in
  ignore
    (Sched.spawn (fun () ->
         Sched.suspend ~register:(fun w -> wake_fn := w);
         woke := true));
  Sched.run ();
  check_bool "still suspended" false !woke;
  !wake_fn ();
  !wake_fn ();
  (* double wake is harmless *)
  Sched.run ();
  check_bool "woken exactly once" true !woke

let test_sched_until_ns () =
  Boot.boot ();
  let iterations = ref 0 in
  ignore
    (Sched.spawn (fun () ->
         while true do
           incr iterations;
           Sched.sleep_ns 100_000
         done));
  Sched.run ~until_ns:1_000_000 ();
  check_bool "deadline reached" true (Clock.now () >= 1_000_000);
  check_bool "stopped near deadline" true (!iterations >= 5 && !iterations <= 12)

(* Allocation regressions: a thread parks its continuation in its own
   record and is queued through its own link, and a sleep arms the clock
   with a wakeup built once per thread, so a round costs only the
   continuation that [perform] builds. [round] runs [n] times inside one
   thread, after a warm-up. *)
let words_per_round_in_thread n round =
  Boot.boot ();
  let words = ref nan in
  ignore
    (Sched.spawn (fun () ->
         round ();
         let w0 = Gc.minor_words () in
         for _ = 1 to n do
           round ()
         done;
         words := (Gc.minor_words () -. w0) /. float_of_int n));
  Sched.run ();
  !words

let test_sched_sleep_alloc () =
  let words = words_per_round_in_thread 10_000 (fun () -> Sched.sleep_ns 10) in
  check_bool
    (Printf.sprintf "sleep and wake: %.1f words <= 4" words)
    true (words <= 4.)

let test_sched_yield_alloc () =
  let words = words_per_round_in_thread 10_000 Sched.yield in
  check_bool (Printf.sprintf "yield: %.1f words <= 4" words) true (words <= 4.)

(* --- Sync --- *)

let test_spinlock_blocks_forbidden () =
  run_sim (fun () ->
      let l = Sync.Spinlock.create () in
      Sync.Spinlock.lock l;
      let raised =
        try
          Sched.sleep_ns 10;
          false
        with Sched.Would_block_in_atomic _ -> true
      in
      Sync.Spinlock.unlock l;
      check_bool "blocking under spinlock raises" true raised)

let test_spinlock_self_deadlock () =
  run_sim (fun () ->
      let l = Sync.Spinlock.create ~name:"t" () in
      Sync.Spinlock.lock l;
      let raised =
        try
          Sync.Spinlock.lock l;
          false
        with Panic.Kernel_bug _ -> true
      in
      Sync.Spinlock.unlock l;
      check_bool "recursive spinlock is a bug" true raised)

let test_semaphore_blocks_and_wakes () =
  Boot.boot ();
  let s = Sync.Semaphore.create 0 in
  let got = ref false in
  ignore
    (Sched.spawn (fun () ->
         Sync.Semaphore.down s;
         got := true));
  ignore
    (Sched.spawn (fun () ->
         Sched.sleep_ns 100;
         Sync.Semaphore.up s));
  Sched.run ();
  check_bool "downer proceeded after up" true !got

let test_mutex_recursion_bug () =
  run_sim (fun () ->
      let m = Sync.Mutex.create () in
      Sync.Mutex.lock m;
      let raised =
        try
          Sync.Mutex.lock m;
          false
        with Panic.Kernel_bug _ -> true
      in
      Sync.Mutex.unlock m;
      check_bool "recursive mutex is a bug" true raised)

let test_completion () =
  Boot.boot ();
  let c = Sync.Completion.create () in
  let n_done = ref 0 in
  for _ = 1 to 3 do
    ignore
      (Sched.spawn (fun () ->
           Sync.Completion.wait c;
           incr n_done))
  done;
  ignore (Sched.spawn (fun () -> Sync.Completion.complete_all c));
  Sched.run ();
  check "complete_all wakes everyone" 3 !n_done

let test_combolock_kernel_fast_path () =
  run_sim (fun () ->
      let l = Sync.Combolock.create () in
      Sync.Combolock.with_kernel l (fun () -> ());
      Sync.Combolock.with_kernel l (fun () -> ());
      let st = Sync.Combolock.stats l in
      check "spin acquires" 2 st.Sync.Combolock.spin_acquires;
      check "sem acquires" 0 st.Sync.Combolock.sem_acquires)

let test_combolock_user_converts_to_semaphore () =
  Boot.boot ();
  let l = Sync.Combolock.create () in
  let order = ref [] in
  ignore
    (Sched.spawn ~name:"user" (fun () ->
         Sync.Combolock.lock_user l;
         order := "user-acquired" :: !order;
         Sched.sleep_ns 1_000_000;
         order := "user-released" :: !order;
         Sync.Combolock.unlock_user l));
  ignore
    (Sched.spawn ~name:"kernel" (fun () ->
         Sched.sleep_ns 10_000;
         (* user holds the lock: the kernel thread must take the
            semaphore path and block rather than spin. *)
         Sync.Combolock.lock_kernel l;
         order := "kernel-acquired" :: !order;
         Sync.Combolock.unlock_kernel l));
  Sched.run ();
  Alcotest.(check (list string))
    "kernel waited for user"
    [ "kernel-acquired"; "user-released"; "user-acquired" ]
    !order;
  let st = Sync.Combolock.stats l in
  check "sem acquires" 2 st.Sync.Combolock.sem_acquires

let test_combolock_contention_accounting () =
  (* A user-level holder keeps the lock for 2 ms while several kernel
     workers pile up behind it — the multi-worker dispatch picture. Each
     kernel acquisition must be pushed off the spin fast path onto the
     semaphore (spin_to_sem), be counted as contended, and have its
     virtual wait time charged, both per-lock and in the machine-wide
     totals that Channel.stats reports. *)
  Boot.boot ();
  let l = Sync.Combolock.create ~name:"contended" () in
  let workers = 3 in
  let in_crit = ref false and overlaps = ref 0 and entered = ref 0 in
  ignore
    (Sched.spawn ~name:"user-holder" (fun () ->
         Sync.Combolock.with_user l (fun () -> Sched.sleep_ns 2_000_000)));
  for i = 1 to workers do
    ignore
      (Sched.spawn
         ~name:(Printf.sprintf "worker%d" i)
         (fun () ->
           Sched.sleep_ns 10_000;
           Sync.Combolock.with_kernel l (fun () ->
               if !in_crit then incr overlaps;
               in_crit := true;
               incr entered;
               in_crit := false)))
  done;
  Sched.run ();
  check "every worker got the lock" workers !entered;
  check "critical sections never overlapped" 0 !overlaps;
  let st = Sync.Combolock.stats l in
  check "no spin acquisitions while user involved" 0
    st.Sync.Combolock.spin_acquires;
  check "every kernel acquisition converted spin->sem" workers
    st.Sync.Combolock.spin_to_sem;
  check "all three workers hit a held semaphore" workers
    st.Sync.Combolock.contended;
  check_bool
    (Printf.sprintf "virtual wait time charged (%d ns)"
       st.Sync.Combolock.wait_ns)
    true
    (st.Sync.Combolock.wait_ns > 0);
  (* only this lock existed since reset: machine totals must agree *)
  let tot = Sync.Combolock.totals () in
  check "totals: spin_to_sem" st.Sync.Combolock.spin_to_sem
    tot.Sync.Combolock.spin_to_sem;
  check "totals: contended" st.Sync.Combolock.contended
    tot.Sync.Combolock.contended;
  check "totals: wait_ns" st.Sync.Combolock.wait_ns
    tot.Sync.Combolock.wait_ns

(* --- IRQ --- *)

let test_irq_basic_delivery () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 5 ~name:"test" (fun () ->
      check_bool "in interrupt" true (Sched.in_interrupt ());
      incr hits);
  Irq.raise_irq 5;
  check "delivered immediately" 1 !hits;
  check "counter" 1 (Irq.delivered 5)

let test_irq_disable_defers () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 5 ~name:"test" (fun () -> incr hits);
  Irq.disable_irq 5;
  Irq.raise_irq 5;
  Irq.raise_irq 5;
  check "not delivered while disabled" 0 !hits;
  Irq.enable_irq 5;
  check "coalesced single delivery on enable" 1 !hits

let test_irq_masked_cpu_defers () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 3 ~name:"test" (fun () -> incr hits);
  Sched.local_irq_save ();
  Irq.raise_irq 3;
  check "not delivered while masked" 0 !hits;
  Sched.local_irq_restore ();
  check "delivered on unmask" 1 !hits

let test_irq_spurious () =
  Boot.boot ();
  Irq.raise_irq 7;
  check "spurious counted" 1 (Irq.spurious ())

(* A blocked line waits in the backlog with no timer armed and is
   delivered once, when its delivery window opens: the handler is
   entered at the opening time plus the dispatch cost. [delivery_log]
   records each entry's time; the 200 us after the window show that no
   second delivery follows. *)
let delivery_log line =
  let log = ref [] in
  Irq.request_irq line ~name:"test" (fun () -> log := Clock.now () :: !log);
  log

let check_delivered_once what log opens =
  Clock.consume 200_000;
  Alcotest.(check (list int))
    what
    [ opens + Cost.current.irq_dispatch_ns ]
    !log

let test_irq_restore_delivers () =
  Boot.boot ();
  let log = delivery_log 3 in
  Sched.local_irq_save ();
  Irq.raise_irq 3;
  check_bool "no timer armed" false (Clock.has_events ());
  Clock.consume 5_000;
  let opens = Clock.now () in
  Sched.local_irq_restore ();
  check_delivered_once "delivered once, at local_irq_restore" log opens

let test_irq_handler_return_delivers () =
  Boot.boot ();
  let log = delivery_log 4 in
  let armed = ref true and returns = ref 0 in
  Irq.request_irq 5 ~name:"outer" (fun () ->
      Irq.raise_irq 4;
      armed := Clock.has_events ();
      Clock.consume 5_000;
      check "not delivered inside another handler" 0 (List.length !log);
      returns := Clock.now ());
  Irq.raise_irq 5;
  check_bool "no timer armed" false !armed;
  check_delivered_once "delivered once, when the outer handler returns" log
    !returns

let test_irq_enable_delivers () =
  Boot.boot ();
  let log = delivery_log 6 in
  Irq.disable_irq 6;
  Irq.raise_irq 6;
  check_bool "no timer armed" false (Clock.has_events ());
  Clock.consume 5_000;
  let opens = Clock.now () in
  Irq.enable_irq 6;
  check_delivered_once "delivered once, at enable_irq" log opens

(* [free_irq] leaves a queued line in the backlog, so a line freed and
   re-requested while the CPU is masked is queued once. More cycles than
   the backlog has slots would overflow it otherwise. *)
let test_irq_rerequest_queues_once () =
  Boot.boot ();
  let hits = ref 0 in
  Sched.local_irq_save ();
  for _ = 0 to Irq.nr_irqs do
    Irq.request_irq 4 ~name:"test" (fun () -> incr hits);
    Irq.raise_irq 4;
    Irq.free_irq 4
  done;
  Irq.request_irq 4 ~name:"test" (fun () -> incr hits);
  Irq.raise_irq 4;
  Sched.local_irq_restore ();
  check "delivered once" 1 !hits;
  check "on its line" 1 (Irq.delivered 4)

(* A boot re-installs the backlog drain over a hook a test replaced. *)
let test_irq_boot_restores_window_hook () =
  Boot.boot ();
  Sched.set_irq_window_hook ignore;
  Boot.boot ();
  let log = delivery_log 3 in
  Sched.local_irq_save ();
  Irq.raise_irq 3;
  let opens = Clock.now () in
  Sched.local_irq_restore ();
  check_delivered_once "delivered at local_irq_restore" log opens

(* Allocation regression: a line raised under local_irq_save waits in
   the backlog ring and is delivered at local_irq_restore; neither
   allocates. *)
let test_irq_masked_alloc () =
  Boot.boot ();
  let hits = ref 0 in
  Irq.request_irq 3 ~name:"test" (fun () -> incr hits);
  let round () =
    Sched.local_irq_save ();
    Irq.raise_irq 3;
    Sched.local_irq_restore ()
  in
  round ();
  let n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    round ()
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  check "every round delivered" (n + 1) !hits;
  check_bool (Printf.sprintf "masked irq: %.2f words = 0" words) true (words = 0.)

(* --- Timer --- *)

let test_timer_fires_at_high_priority () =
  Boot.boot ();
  let was_irq = ref false in
  let t = Timer.create (fun () -> was_irq := Sched.in_interrupt ()) in
  Timer.mod_timer_in t 1_000;
  Clock.consume 2_000;
  check "fired once" 1 (Timer.fired t);
  check_bool "ran in interrupt context" true !was_irq

let test_timer_del () =
  Boot.boot ();
  let t = Timer.create ignore in
  Timer.mod_timer_in t 1_000;
  check_bool "del pending" true (Timer.del_timer t);
  Clock.consume 2_000;
  check "never fired" 0 (Timer.fired t)

let test_timer_rearm () =
  Boot.boot ();
  let t = Timer.create ignore in
  Timer.mod_timer_in t 1_000;
  Timer.mod_timer_in t 5_000;
  Clock.consume 2_000;
  check "rearm replaced first deadline" 0 (Timer.fired t);
  Clock.consume 4_000;
  check "fired at new deadline" 1 (Timer.fired t)

(* --- Workqueue --- *)

let test_workqueue_runs_in_process_context () =
  Boot.boot ();
  let wq = Workqueue.create ~name:"test" in
  let ok = ref false in
  ignore
    (Sched.spawn (fun () ->
         Workqueue.queue_work wq (fun () ->
             (* blocking is legal here *)
             Sched.sleep_ns 100;
             ok := true);
         Workqueue.flush wq));
  Sched.run ();
  check_bool "work ran and could block" true !ok;
  check "executed" 1 (Workqueue.executed wq)

let test_workqueue_from_timer () =
  (* The paper's watchdog pattern: a high-priority timer defers to a
     work item so the work may block (and call up to the decaf driver). *)
  Boot.boot ();
  let wq = Workqueue.create ~name:"watchdog" in
  let ran_blocking = ref false in
  let t =
    Timer.create (fun () ->
        Workqueue.queue_work wq (fun () ->
            Sched.sleep_ns 50;
            ran_blocking := true))
  in
  Timer.mod_timer_in t 1_000;
  ignore (Sched.spawn (fun () -> Sched.sleep_ns 5_000));
  Sched.run ();
  check_bool "deferred work ran" true !ran_blocking

(* --- Kmem --- *)

let test_kmem_leak_tracking () =
  run_sim (fun () ->
      let a = Kmem.alloc_exn ~tag:"adapter" 512 in
      let n, b = Kmem.outstanding () in
      check "one live" 1 n;
      check "bytes" 512 b;
      Kmem.free a;
      check "none live" 0 (fst (Kmem.outstanding ())))

let test_kmem_double_free () =
  run_sim (fun () ->
      let a = Kmem.alloc_exn ~tag:"x" 8 in
      Kmem.free a;
      check_bool "double free raises" true
        (try
           Kmem.free a;
           false
         with Kmem.Use_after_free _ -> true))

let test_kmem_injection () =
  run_sim (fun () ->
      Kmem.inject_failure ~after:2;
      let a = Kmem.alloc ~tag:"a" 8 in
      let b = Kmem.alloc ~tag:"b" 8 in
      let c = Kmem.alloc ~tag:"c" 8 in
      check_bool "first ok" true (a <> None);
      check_bool "second fails" true (b = None);
      check_bool "third ok" true (c <> None);
      List.iter (function Some x -> Kmem.free x | None -> ()) [ a; b; c ])

let test_kmem_gfp_kernel_in_irq_is_bug () =
  Boot.boot ();
  let raised = ref false in
  Irq.request_irq 1 ~name:"t" (fun () ->
      match Kmem.alloc ~gfp:Kmem.Kernel ~tag:"bad" 8 with
      | exception Sched.Would_block_in_atomic _ -> raised := true
      | Some a -> Kmem.free a
      | None -> ());
  Irq.raise_irq 1;
  check_bool "GFP_KERNEL in irq raises" true !raised

(* --- Dma --- *)

let test_dma_alloc_free () =
  run_sim (fun () ->
      let m =
        match Decaf_kernel.Dma.alloc_coherent ~tag:"ring" 4096 with
        | Some m -> m
        | None -> Alcotest.fail "dma alloc failed"
      in
      check_bool "page aligned bus address" true
        (Decaf_kernel.Dma.bus_addr m mod 4096 = 0);
      check "size" 4096 (Decaf_kernel.Dma.size m);
      check "active" 1 (Decaf_kernel.Dma.active_mappings ());
      Decaf_kernel.Dma.free_coherent m;
      check "inactive" 0 (Decaf_kernel.Dma.active_mappings ()))

let test_dma_mappings_distinct () =
  run_sim (fun () ->
      let a = Option.get (Decaf_kernel.Dma.alloc_coherent ~tag:"a" 64) in
      let b = Option.get (Decaf_kernel.Dma.alloc_coherent ~tag:"b" 64) in
      check_bool "non-overlapping bus addresses" true
        (Decaf_kernel.Dma.bus_addr a <> Decaf_kernel.Dma.bus_addr b);
      Decaf_kernel.Dma.free_coherent a;
      Decaf_kernel.Dma.free_coherent b)

let test_dma_respects_injection () =
  run_sim (fun () ->
      Kmem.inject_failure ~after:1;
      check_bool "injected failure surfaces" true
        (Decaf_kernel.Dma.alloc_coherent ~tag:"x" 64 = None);
      Kmem.clear_injection ())

(* --- Io --- *)

let test_io_dispatch () =
  Boot.boot ();
  let reg = ref 0 in
  let r =
    Io.register_ports ~base:0xc000 ~len:0x40
      ~read:(fun off _ -> if off = 0x10 then !reg else 0)
      ~write:(fun off _ v -> if off = 0x10 then reg := v)
  in
  Io.outl 0xc010 0xdeadbeef;
  check "readback" 0xdeadbeef (Io.inl 0xc010);
  check "byte view masked" 0xef (Io.inb 0xc010);
  Io.release r;
  check_bool "unclaimed access is a bug" true
    (try
       ignore (Io.inb 0xc010);
       false
     with Panic.Kernel_bug _ -> true)

let test_io_overlap_rejected () =
  Boot.boot ();
  let mk base =
    Io.register_ports ~base ~len:0x10 ~read:(fun _ _ -> 0)
      ~write:(fun _ _ _ -> ())
  in
  ignore (mk 0x100);
  check_bool "overlap rejected" true
    (try
       ignore (mk 0x108);
       false
     with Panic.Kernel_bug _ -> true)

(* A claim that swallows whole regions overlaps them though neither of
   its ends falls inside one; it is refused and the regions it would
   have covered still answer. *)
let test_io_enclosing_claim_rejected () =
  Boot.boot ();
  let mk ~tag base len =
    Io.register_ports ~base ~len
      ~read:(fun _ _ -> tag)
      ~write:(fun _ _ _ -> ())
  in
  ignore (mk ~tag:1 0x100 0x10);
  ignore (mk ~tag:2 0x180 0x10);
  let refused base len =
    try
      ignore (mk ~tag:9 base len);
      false
    with Panic.Kernel_bug _ -> true
  in
  check_bool "claim enclosing one region refused" true (refused 0x80 0x100);
  check_bool "claim enclosing two regions refused" true (refused 0xf0 0x200);
  check_bool "claim from a region's base refused" true (refused 0x100 0x100);
  check "enclosed region intact" 1 (Io.inb 0x108);
  check "second enclosed region intact" 2 (Io.inb 0x18f);
  ignore (mk ~tag:3 0x110 0x70);
  check "a claim filling the gap exactly is accepted" 3 (Io.inb 0x17f)

(* Multi-region dispatch: 32 port and 32 MMIO regions over the same
   numeric layout, claimed in shuffled order. Every third region runs
   straight into its neighbour; the others leave a gap after them. *)
let test_io_many_regions () =
  Boot.boot ();
  let n = 32 in
  let base i = 0x1000 + (0x100 * i) in
  let len i = if i mod 3 = 0 then 0x100 else 0x10 + (4 * i) in
  let tag space i = (match space with `Port -> 0 | `Mmio -> 100) + i in
  let last_write = ref (-1, -1, -1) in
  let claim ?(tag_of = tag) space ~base ~len i =
    let t = tag_of space i in
    (match space with `Port -> Io.register_ports | `Mmio -> Io.register_mmio)
      ~base ~len
      ~read:(fun off _ -> (t lsl 16) lor off)
      ~write:(fun off _ v -> last_write := (t, off, v))
  in
  let read space a = match space with `Port -> Io.inl a | `Mmio -> Io.readl a in
  let write space a v =
    match space with `Port -> Io.outl a v | `Mmio -> Io.writel a v
  in
  let raises f =
    try
      ignore (f ());
      false
    with Panic.Kernel_bug _ -> true
  in
  let rng = Random.State.make [| 13 |] in
  let order =
    List.concat_map (fun i -> [ (`Port, i); (`Mmio, i) ]) (List.init n Fun.id)
    |> List.map (fun x -> (Random.State.bits rng, x))
    |> List.sort compare |> List.map snd
  in
  let regions = Hashtbl.create 64 in
  List.iter
    (fun (sp, i) ->
      Hashtbl.replace regions (sp, i) (claim sp ~base:(base i) ~len:(len i) i))
    order;
  let reaches ?(tag_of = tag) sp i =
    let t = tag_of sp i and hi = base i + len i - 1 in
    check (Printf.sprintf "base of region %d" t) (t lsl 16) (read sp (base i));
    check
      (Printf.sprintf "last byte of region %d" t)
      ((t lsl 16) lor (len i - 1))
      (read sp hi);
    write sp hi 7;
    check_bool
      (Printf.sprintf "write to region %d" t)
      true
      (!last_write = (t, len i - 1, 7))
  in
  let unclaimed sp a =
    check_bool (Printf.sprintf "%#x is unclaimed" a) true (raises (fun () -> read sp a))
  in
  List.iter
    (fun sp ->
      unclaimed sp (base 0 - 1);
      for i = 0 to n - 1 do
        reaches sp i;
        if len i < 0x100 then begin
          unclaimed sp (base i + len i);
          unclaimed sp (base i + 0x100 - 1)
        end
      done)
    [ `Port; `Mmio ];
  (* release every fourth port region: its MMIO twin and its neighbours
     are untouched *)
  let released i = i mod 4 = 1 in
  for i = 0 to n - 1 do
    if released i then Io.release (Hashtbl.find regions (`Port, i))
  done;
  for i = 0 to n - 1 do
    reaches `Mmio i;
    if released i then begin
      unclaimed `Port (base i);
      unclaimed `Port (base i + len i - 1)
    end
    else reaches `Port i
  done;
  (* an overlapping claim is refused: inside one region, and across the
     seam of two adjacent ones *)
  check_bool "claim inside a region refused" true
    (raises (fun () -> claim `Port ~base:(base 2 + 4) ~len:4 99));
  check_bool "claim across a seam refused" true
    (raises (fun () -> claim `Mmio ~base:(base 1 - 4) ~len:8 99));
  (* a claim that exactly fills a gap is not an overlap *)
  ignore (claim `Port ~base:(base 2 + len 2) ~len:(0x100 - len 2) 98);
  check "gap filled" ((98 lsl 16) lor 0) (read `Port (base 2 + len 2));
  (* a released range can be claimed again, by a new handler *)
  let tag_of sp i = 200 + tag sp i in
  for i = 0 to n - 1 do
    if released i then begin
      ignore (claim ~tag_of `Port ~base:(base i) ~len:(len i) i);
      reaches ~tag_of `Port i
    end
  done

(* --- PCI --- *)

let make_test_dev ?(slot = "00:03.0") () =
  Pci.make_dev ~slot ~vendor:0x8086 ~device:0x100e ~irq_line:11
    ~bars:[ { Pci.kind = Pci.Mmio_bar; base = 0xf000_0000; len = 0x2_0000 } ]
    ()

let test_pci_probe_on_add () =
  Boot.boot ();
  let probed = ref 0 and removed = ref 0 in
  Pci.register_driver ~name:"e1000" ~ids:[ { Pci.id_vendor = 0x8086; id_device = 0x100e } ]
    ~probe:(fun _ -> incr probed; Ok ())
    ~remove:(fun _ -> incr removed);
  let dev = make_test_dev () in
  Pci.add_device dev;
  check "probed" 1 !probed;
  Alcotest.(check (option string)) "bound" (Some "e1000") (Pci.bound_driver dev);
  Pci.unregister_driver "e1000";
  check "removed" 1 !removed;
  Alcotest.(check (option string)) "unbound" None (Pci.bound_driver dev)

let test_pci_probe_on_register () =
  Boot.boot ();
  let dev = make_test_dev () in
  Pci.add_device dev;
  let probed = ref 0 in
  Pci.register_driver ~name:"e1000" ~ids:[ { Pci.id_vendor = 0x8086; id_device = 0x100e } ]
    ~probe:(fun _ -> incr probed; Ok ())
    ~remove:ignore;
  check "late driver probes existing device" 1 !probed

let pci_ids = [ { Pci.id_vendor = 0x8086; id_device = 0x100e } ]
let pci_slot i = Printf.sprintf "00:%02x.0" i

let test_pci_slot_populated () =
  Boot.boot ();
  let dev = make_test_dev () in
  Pci.add_device dev;
  check_bool "a second device in the slot is a bug" true
    (try
       Pci.add_device (make_test_dev ());
       false
     with Panic.Kernel_bug _ -> true);
  check "the bus keeps one device" 1 (List.length (Pci.devices ()));
  Pci.remove_device dev;
  Pci.add_device (make_test_dev ());
  check "an unplugged slot takes a new device" 1
    (List.length (Pci.devices ()))

(* A driver that refuses every probe is offered each unbound device:
   the whole bus in bus order at registration, one device by slot. *)
let test_pci_rescan_slot () =
  Boot.boot ();
  List.iter
    (fun i -> Pci.add_device (make_test_dev ~slot:(pci_slot i) ()))
    [ 0; 1; 2; 3 ];
  let offered = ref [] in
  Pci.register_driver ~name:"e1000" ~ids:pci_ids
    ~probe:(fun d ->
      offered := Pci.slot d :: !offered;
      Error (-19))
    ~remove:ignore;
  let took what want =
    Alcotest.(check (list string)) what want (List.rev !offered);
    offered := []
  in
  took "registration offers the bus in order" (List.init 4 pci_slot);
  Pci.rescan ~slot:(pci_slot 2) ();
  took "rescan ~slot offers that device alone" [ pci_slot 2 ];
  Pci.rescan ~slot:(pci_slot 9) ();
  took "an empty slot offers nothing" [];
  Pci.rescan ();
  took "a full rescan offers the bus in order" (List.init 4 pci_slot)

(* -ENODEV and -ENXIO from a probe mean "not this device", as the Linux
   driver core reads them: no warning. Any other errno still warns. *)
let test_pci_refusal_quiet () =
  Boot.boot ();
  List.iter
    (fun i -> Pci.add_device (make_test_dev ~slot:(pci_slot i) ()))
    [ 0; 1; 2 ];
  let errno = [ (pci_slot 0, -19); (pci_slot 1, -6); (pci_slot 2, -5) ] in
  Pci.register_driver ~name:"e1000" ~ids:pci_ids
    ~probe:(fun d -> Error (List.assoc (Pci.slot d) errno))
    ~remove:ignore;
  check "one warning" 1 (Klog.count Klog.Warning);
  check_bool "for the -5 failure" true
    (List.exists
       (fun l ->
         Testutil.contains l "pci 00:02.0: probe by e1000 failed (errno -5)")
       (Klog.dmesg ()))

let test_pci_detach_by_slot () =
  Boot.boot ();
  let devs = List.init 3 (fun i -> make_test_dev ~slot:(pci_slot i) ()) in
  List.iter Pci.add_device devs;
  let removed = ref [] in
  Pci.register_driver ~name:"e1000" ~ids:pci_ids
    ~probe:(fun _ -> Ok ())
    ~remove:(fun d -> removed := Pci.slot d :: !removed);
  let bound () = List.map Pci.bound_driver devs in
  Pci.detach ~slot:(pci_slot 1);
  Alcotest.(check (list string))
    "remove ran for that slot" [ pci_slot 1 ] !removed;
  Alcotest.(check (list (option string)))
    "only that device unbound"
    [ Some "e1000"; None; Some "e1000" ]
    (bound ());
  check "the device stays on the bus" 3 (List.length (Pci.devices ()));
  Pci.detach ~slot:(pci_slot 1);
  Pci.detach ~slot:(pci_slot 9);
  check "an unbound or empty slot detaches nothing" 1 (List.length !removed);
  Pci.rescan ~slot:(pci_slot 1) ();
  Alcotest.(check (list (option string)))
    "rescan rebinds it" [ Some "e1000"; Some "e1000"; Some "e1000" ] (bound ())

let test_pci_config_space () =
  Boot.boot ();
  let dev = make_test_dev () in
  check "vendor id" 0x8086 (Pci.read_config16 dev 0x00);
  check "device id" 0x100e (Pci.read_config16 dev 0x02);
  check "irq line" 11 (Pci.read_config8 dev 0x3c);
  Pci.write_config32 dev 0x40 0x12345678;
  check "rw dword" 0x12345678 (Pci.read_config32 dev 0x40);
  check "config words" 64 (Array.length (Pci.config_space_words dev))

(* --- Netcore --- *)

let null_net_ops =
  {
    Netcore.ndo_open = (fun () -> Ok ());
    ndo_stop = (fun () -> Ok ());
    ndo_start_xmit = (fun _ -> Netcore.Xmit_ok);
    ndo_tx_timeout = ignore;
  }

let test_netcore_rx_path () =
  Boot.boot ();
  let dev = Netcore.create ~name:"eth0" ~mtu:1500 null_net_ops in
  Netcore.register_netdev dev;
  let got = ref 0 in
  Netcore.set_rx_handler dev (fun skb -> got := !got + skb.Netcore.Skb.len);
  Netcore.netif_rx dev (Netcore.Skb.alloc 100);
  Netcore.netif_rx dev (Netcore.Skb.alloc 60);
  check "handler saw bytes" 160 !got;
  check "stats rx packets" 2 (Netcore.stats dev).Netcore.rx_packets

let test_netcore_queue_stop () =
  Boot.boot ();
  let sent = ref 0 in
  let ops =
    { null_net_ops with
      Netcore.ndo_start_xmit = (fun _ -> incr sent; Netcore.Xmit_ok)
    }
  in
  let dev = Netcore.create ~name:"eth0" ~mtu:1500 ops in
  Netcore.register_netdev dev;
  Alcotest.(check bool) "xmit while down is busy" true
    (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64) = Netcore.Xmit_busy);
  (match Netcore.open_dev dev with Ok () -> () | Error _ -> Alcotest.fail "open");
  Netcore.netif_wake_queue dev;
  ignore (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64));
  Netcore.netif_stop_queue dev;
  Alcotest.(check bool) "xmit while stopped is busy" true
    (Netcore.dev_queue_xmit dev (Netcore.Skb.alloc 64) = Netcore.Xmit_busy);
  check "driver saw one packet" 1 !sent

(* Naming probes the name-keyed registry: the lowest free index wins,
   and a freed name is the next one handed out. *)
let test_netcore_names () =
  Boot.boot ();
  let devs =
    List.init 256 (fun _ ->
        let d =
          Netcore.create ~name:(Netcore.alloc_name "eth") ~mtu:1500 null_net_ops
        in
        Netcore.register_netdev d;
        d)
  in
  Alcotest.(check (list string))
    "eth0 ... eth255"
    (List.init 256 (Printf.sprintf "eth%d"))
    (List.map Netcore.name devs);
  Netcore.unregister_netdev (List.nth devs 3);
  Alcotest.(check string) "a freed name is reused first" "eth3"
    (Netcore.alloc_name "eth");
  Alcotest.(check string) "other prefixes start at 0" "wlan0"
    (Netcore.alloc_name "wlan")

(* Naming resumes from a cursor, which a freed name moves back: the
   lowest free index wins whatever order names are freed in, and
   freeing "eth10" frees index 10 under "eth" and index 0 under
   "eth1". *)
let test_netcore_names_cursor () =
  Boot.boot ();
  let add name =
    let d = Netcore.create ~name ~mtu:1500 null_net_ops in
    Netcore.register_netdev d;
    d
  in
  let devs = List.init 8 (fun _ -> add (Netcore.alloc_name "eth")) in
  let next () = Netcore.name (add (Netcore.alloc_name "eth")) in
  Netcore.unregister_netdev (List.nth devs 6);
  Netcore.unregister_netdev (List.nth devs 2);
  Alcotest.(check (list string))
    "lowest freed first, then the next, then fresh" [ "eth2"; "eth6"; "eth8" ]
    (List.map (fun _ -> next ()) [ 1; 2; 3 ]);
  Alcotest.(check string) "unused name not taken" "eth9"
    (Netcore.alloc_name "eth");
  Alcotest.(check string) "allocating twice gives it again" "eth9"
    (Netcore.alloc_name "eth");
  let e10 = add (Netcore.alloc_name "eth1") in
  Alcotest.(check string) "eth1 prefix" "eth10" (Netcore.name e10);
  Alcotest.(check string) "eth1 prefix skips taken names" "eth11"
    (Netcore.alloc_name "eth1");
  Alcotest.(check string) "eth9 taken" "eth9" (next ());
  Alcotest.(check string) "eth skips eth10 too" "eth11"
    (Netcore.alloc_name "eth");
  Netcore.unregister_netdev e10;
  Alcotest.(check string) "freeing eth10 frees eth's index 10" "eth10"
    (Netcore.alloc_name "eth");
  Alcotest.(check string) "and eth1's index 0" "eth10"
    (Netcore.alloc_name "eth1")

(* --- Sndcore --- *)

let null_pcm_ops pointer =
  {
    Sndcore.pcm_open = (fun () -> Ok ());
    pcm_close = ignore;
    pcm_hw_params = (fun ~rate:_ ~channels:_ ~sample_bits:_ -> Ok ());
    pcm_prepare = (fun () -> Ok ());
    pcm_trigger = (fun _ -> ());
    pcm_pointer = pointer;
  }

let test_sndcore_write_blocks_until_period () =
  Boot.boot ();
  let hw = ref 0 in
  let card = Sndcore.snd_card_new "test" in
  check "register ok" 0 (Sndcore.snd_card_register card);
  let sub = Sndcore.new_pcm card ~buffer_bytes:1000 (null_pcm_ops (fun () -> !hw)) in
  let wrote = ref 0 in
  ignore
    (Sched.spawn (fun () ->
         Sndcore.pcm_write sub 800;
         wrote := 800;
         Sndcore.pcm_write sub 800;
         (* must block until the device drains *)
         wrote := 1600));
  Sched.run ();
  check "second write blocked" 800 !wrote;
  hw := 800;
  Sndcore.period_elapsed sub;
  Sched.run ();
  check "second write completed after period" 1600 !wrote

let test_sndcore_spin_discipline_forbids_blocking () =
  Boot.boot ();
  Sndcore.set_lock_discipline Sndcore.Lock_spin;
  let ops =
    { (null_pcm_ops (fun () -> 0)) with
      Sndcore.pcm_prepare = (fun () -> Sched.sleep_ns 10; Ok ())
    }
  in
  let card = Sndcore.snd_card_new "test" in
  let sub = Sndcore.new_pcm card ~buffer_bytes:100 ops in
  let raised = ref false in
  ignore
    (Sched.spawn (fun () ->
         try ignore (Sndcore.pcm_prepare sub)
         with Sched.Would_block_in_atomic _ -> raised := true));
  Sched.run ();
  check_bool "spinlock discipline forbids blocking callbacks" true !raised

(* --- Usbcore --- *)

let test_usb_bulk_msg_roundtrip () =
  Boot.boot ();
  (* An HCD that completes bulk transfers 1 ms later. *)
  Usbcore.register_hcd ~name:"test-hcd"
    {
      Usbcore.hcd_submit_urb =
        (fun urb ->
          ignore
            (Clock.after 1_000_000 (fun () ->
                 urb.Usbcore.actual_length <- Bytes.length urb.Usbcore.buffer;
                 urb.Usbcore.status <- 0;
                 urb.Usbcore.complete urb));
          Ok ());
      hcd_frame_number = (fun () -> Clock.now () / 1_000_000);
    };
  let result = ref (Error 0) in
  ignore
    (Sched.spawn (fun () ->
         result :=
           Usbcore.bulk_msg ~direction:Usbcore.Dir_out ~endpoint:2
             (Bytes.make 512 'x')));
  Sched.run ();
  (match !result with
  | Ok n -> check "transferred" 512 n
  | Error e -> Alcotest.failf "bulk_msg failed: %d" e);
  check_bool "time advanced ~1ms" true (Clock.now () >= 1_000_000)

(* --- Inputcore --- *)

let test_input_events () =
  Boot.boot ();
  let dev = Inputcore.create ~name:"mouse0" in
  Inputcore.register dev;
  let rels = ref 0 and keys = ref 0 and syncs = ref 0 in
  Inputcore.set_handler dev (function
    | Inputcore.Rel _ -> incr rels
    | Inputcore.Key _ -> incr keys
    | Inputcore.Sync_report -> incr syncs);
  Inputcore.report_rel dev ~dx:1 ~dy:(-1);
  Inputcore.report_key dev ~code:0 ~pressed:true;
  Inputcore.sync dev;
  check "rel" 1 !rels;
  check "key" 1 !keys;
  check "sync" 1 !syncs;
  check "total" 3 (Inputcore.events_reported dev)

(* --- Modules --- *)

let test_module_init_latency () =
  run_sim (fun () ->
      let h =
        match
          Modules.insmod ~name:"fake"
            ~init:(fun () ->
              Clock.consume 2_000_000;
              Ok ())
            ~exit:ignore
        with
        | Ok h -> h
        | Error e -> Alcotest.failf "insmod failed: %d" e
      in
      check_bool "latency >= init work" true (Modules.init_latency_ns h >= 2_000_000);
      check_bool "loaded" true (Modules.is_loaded "fake");
      Modules.rmmod h;
      check_bool "unloaded" false (Modules.is_loaded "fake"))

let test_module_failed_init () =
  run_sim (fun () ->
      match Modules.insmod ~name:"bad" ~init:(fun () -> Error (-19)) ~exit:ignore with
      | Ok _ -> Alcotest.fail "expected failure"
      | Error e ->
          check "errno" (-19) e;
          check_bool "not loaded" false (Modules.is_loaded "bad"))

(* --- Boot --- *)

let test_boot_quiescent () =
  run_sim (fun () -> ());
  (match Boot.check_quiescent () with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "not quiescent: %s" msg);
  Boot.boot ();
  ignore (Sched.spawn (fun () -> Kmem.alloc ~tag:"leak" 16 |> ignore));
  Sched.run ();
  check_bool "leak detected" true (Result.is_error (Boot.check_quiescent ()))

(* --- Properties --- *)

let prop_semaphore_conservation =
  QCheck.Test.make ~name:"semaphore count conserved across contention" ~count:50
    QCheck.(pair (int_range 1 5) (int_range 1 20))
    (fun (initial, threads) ->
      Boot.boot ();
      let s = Sync.Semaphore.create initial in
      let inside = ref 0 and max_inside = ref 0 in
      for _ = 1 to threads do
        ignore
          (Sched.spawn (fun () ->
               Sync.Semaphore.down s;
               incr inside;
               max_inside := max !max_inside !inside;
               Sched.sleep_ns 100;
               decr inside;
               Sync.Semaphore.up s))
      done;
      Sched.run ();
      !max_inside <= initial && Sync.Semaphore.count s = initial)

let prop_clock_events_never_run_early =
  QCheck.Test.make ~name:"clock events never fire before their due time" ~count:100
    QCheck.(small_list (int_range 0 10_000))
    (fun delays ->
      Boot.boot ();
      let ok = ref true in
      List.iter
        (fun d ->
          let due = Clock.now () + d in
          ignore (Clock.at due (fun () -> if Clock.now () < due then ok := false)))
        delays;
      Clock.consume 20_000;
      !ok)

let prop_waitq_wake_all_counts =
  QCheck.Test.make ~name:"waitq wake_all wakes exactly the waiters" ~count:50
    QCheck.(int_range 0 20)
    (fun n ->
      Boot.boot ();
      let q = Sync.Waitq.create () in
      let woken = ref 0 in
      for _ = 1 to n do
        ignore
          (Sched.spawn (fun () ->
               Sync.Waitq.wait q;
               incr woken))
      done;
      Sched.run ();
      let reported = Sync.Waitq.wake_all q in
      Sched.run ();
      reported = n && !woken = n)

let prop_busy_never_exceeds_elapsed =
  (* interrupt handlers preempt busy work; their time must extend the
     elapsed window, never double-count into it *)
  QCheck.Test.make ~name:"utilization can never exceed 100%" ~count:100
    QCheck.(small_list (pair (int_range 0 5_000) (int_range 0 3_000)))
    (fun work ->
      Boot.boot ();
      List.iter
        (fun (delay, handler_cost) ->
          ignore (Clock.after delay (fun () -> Clock.consume handler_cost)))
        work;
      List.iter (fun (d, _) -> Clock.consume (d / 2)) work;
      Clock.consume 10_000;
      Clock.busy_ns () <= Clock.now ())

(* Model-based check of the Clock queue. Random programs run against the
   real queue and against a naive model, a list sorted by (due, seq);
   after every step the firings so far (order and times), [pending] of
   every id ever issued, [has_events], [scheduled] and [now] must agree.
   Due times repeat; ids are cancelled while pending, after firing,
   twice, from inside another event's callback, and after a reboot that
   queued fresh events. *)
type clock_op =
  | Op_at of int
  | Op_after of int
  | Op_after_cancelling of int * int
  | Op_cancel of int
  | Op_consume of int
  | Op_advance
  | Op_reboot
  | Op_burst of int  (** schedule this many events at once *)
  | Op_spread of int  (** as many events, at distinct due times *)

let show_clock_op = function
  | Op_at t -> Printf.sprintf "at %d" t
  | Op_after d -> Printf.sprintf "after %d" d
  | Op_after_cancelling (d, k) -> Printf.sprintf "after %d cancelling #%d" d k
  | Op_cancel k -> Printf.sprintf "cancel #%d" k
  | Op_consume n -> Printf.sprintf "consume %d" n
  | Op_advance -> "advance"
  | Op_reboot -> "reboot"
  | Op_burst n -> Printf.sprintf "burst %d" n
  | Op_spread n -> Printf.sprintf "spread %d" n

let gen_clock_op =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun t -> Op_at (100 * t)) (int_range 0 8));
        (3, map (fun d -> Op_after (100 * d)) (int_range 0 4));
        ( 2,
          map2
            (fun d k -> Op_after_cancelling (100 * d, k))
            (int_range 0 4) small_nat );
        (3, map (fun k -> Op_cancel k) small_nat);
        (3, map (fun n -> Op_consume (50 * n)) (int_range 0 6));
        (1, return Op_advance);
        (1, return Op_reboot);
        (* bursts push some programs past 256 pending events, so slab
           growth and slot reuse are exercised under stale ids *)
        (1, map (fun n -> Op_burst n) (int_range 100 300));
        (* bursts repeat 7 due times, so their deep heaps are all ties;
           a spread builds deep heaps where an interior cancel can make
           the replacement entry move up *)
        (1, map (fun n -> Op_spread n) (int_range 100 300));
      ])

type model_event = {
  m_key : int * int; (* life, seq *)
  m_due : int;
  m_label : int;
  m_cancels : int option;
}

let prop_clock_matches_model =
  QCheck.Test.make ~name:"clock queue matches a sorted-list model" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list show_clock_op)
       QCheck.Gen.(list_size (int_range 1 40) gen_clock_op))
    (fun prog ->
      Boot.boot ();
      (* every id ever issued, paired with its model key; an event's
         label is its index here *)
      let ids = ref [||] and n_ids = ref 0 in
      let id k = !ids.(k mod !n_ids) in
      let log = ref [] in
      let life = ref 0 and m_time = ref 0 and m_seq = ref 0 in
      let m_queue = ref [] and m_log = ref [] in
      let m_cancel key =
        m_queue := List.filter (fun e -> e.m_key <> key) !m_queue
      in
      let m_fire e =
        m_queue := List.tl !m_queue;
        m_time := max !m_time e.m_due;
        m_log := (e.m_label, !m_time) :: !m_log;
        Option.iter (fun k -> m_cancel (snd (id k))) e.m_cancels
      in
      let rec m_fire_until t =
        match !m_queue with
        | e :: _ when e.m_due <= t ->
            m_fire e;
            m_fire_until t
        | _ -> ()
      in
      (* busy work stops at the end of its window: of several events due
         exactly then, only the first fires inside it *)
      let rec m_consume remaining =
        if remaining > 0 then
          match !m_queue with
          | e :: _ when e.m_due <= !m_time + remaining ->
              let slice = max 0 (e.m_due - !m_time) in
              m_fire e;
              m_consume (remaining - slice)
          | _ -> m_time := !m_time + remaining
      in
      let schedule real due cancels =
        let label = !n_ids in
        let r =
          real (fun () ->
              log := (label, Clock.now ()) :: !log;
              Option.iter (fun k -> Clock.cancel (fst (id k))) cancels)
        in
        incr m_seq;
        let e =
          {
            m_key = (!life, !m_seq);
            m_due = max due !m_time;
            m_label = label;
            m_cancels = cancels;
          }
        in
        let order a b = compare (a.m_due, a.m_key) (b.m_due, b.m_key) in
        m_queue := List.merge order [ e ] !m_queue;
        if !n_ids = Array.length !ids then
          ids := Array.append !ids (Array.make (max 16 !n_ids) (r, e.m_key));
        !ids.(!n_ids) <- (r, e.m_key);
        incr n_ids
      in
      let step = function
        | Op_at t -> schedule (Clock.at t) t None
        | Op_after d -> schedule (Clock.after d) (!m_time + d) None
        | Op_after_cancelling (d, k) ->
            schedule (Clock.after d) (!m_time + d) (Some k)
        | Op_cancel k ->
            if !n_ids > 0 then begin
              let r, key = id k in
              Clock.cancel r;
              m_cancel key
            end
        | Op_consume n ->
            Clock.consume n;
            m_consume n
        | Op_advance ->
            let advanced = Clock.advance_to_next_event () in
            let m_advanced =
              match !m_queue with
              | [] -> false
              | e :: _ ->
                  m_time := max !m_time e.m_due;
                  m_fire_until !m_time;
                  true
            in
            if advanced <> m_advanced then
              QCheck.Test.fail_report "advance_to_next_event disagrees"
        | Op_reboot ->
            Boot.boot ();
            incr life;
            m_time := 0;
            m_seq := 0;
            m_queue := []
        | Op_burst n ->
            for i = 0 to n - 1 do
              let d = 100 * (i mod 7) in
              schedule (Clock.after d) (!m_time + d) None
            done
        | Op_spread n ->
            (* n distinct due times in [0, 1009), by a stride whose
               start shifts with the history *)
            let base = !m_seq in
            for i = 0 to n - 1 do
              let d = (base + i) * 389 mod 1_009 in
              schedule (Clock.after d) (!m_time + d) None
            done
      in
      let agrees () =
        !log = !m_log
        && Clock.now () = !m_time
        && Clock.has_events () = (!m_queue <> [])
        && Clock.scheduled () = !m_seq
        &&
        let queued = Hashtbl.create 64 in
        List.iter (fun e -> Hashtbl.replace queued e.m_key ()) !m_queue;
        Array.for_all
          (fun (r, key) -> Clock.pending r = Hashtbl.mem queued key)
          (Array.sub !ids 0 !n_ids)
      in
      List.for_all
        (fun op ->
          step op;
          agrees ())
        prog)

(* --- Faultinject --- *)

let test_fi_span_trigger () =
  run_sim (fun () ->
      Faultinject.arm ~seed:1
        [
          Faultinject.spec ~site:"t" ~kind:Faultinject.Alloc_fail
            ~trigger:(Faultinject.Span (2, 3))
            ();
        ];
      let pattern =
        List.init 6 (fun _ -> Faultinject.fires ~site:"t" Faultinject.Alloc_fail)
      in
      Alcotest.(check (list bool))
        "fires on accesses 2..4"
        [ false; true; true; true; false; false ]
        pattern;
      check "three injections recorded" 3 (Faultinject.injected_count ());
      check_bool "other sites unaffected" false
        (Faultinject.fires ~site:"other" Faultinject.Alloc_fail);
      Faultinject.disarm ();
      check_bool "quiet after disarm" false
        (Faultinject.fires ~site:"t" Faultinject.Alloc_fail);
      check "counters survive disarm for reporting" 3
        (Faultinject.injected_count ()))

let test_fi_stuck_reads_respect_addr () =
  run_sim (fun () ->
      let region =
        Io.register_ports ~base:0x500 ~len:4
          ~read:(fun _ _ -> 0x5a)
          ~write:(fun _ _ _ -> ())
      in
      Faultinject.arm ~seed:2
        [
          Faultinject.spec ~addr:0x500 ~site:"io.port"
            ~kind:Faultinject.Stuck_ones ~trigger:Faultinject.Always ();
          Faultinject.spec ~addr:0x502 ~site:"io.port"
            ~kind:Faultinject.Stuck_zero ~trigger:Faultinject.Always ();
        ];
      check "stuck-ones masked to access width" 0xff (Io.inb 0x500);
      check "stuck-zero" 0 (Io.inb 0x502);
      check "other address reads clean" 0x5a (Io.inb 0x501);
      Faultinject.disarm ();
      check "clean after disarm" 0x5a (Io.inb 0x500);
      Io.release region)

let test_fi_bad_read_flips_one_bit () =
  run_sim (fun () ->
      let armed () =
        Faultinject.arm ~seed:5
          [
            Faultinject.spec ~site:"hw.eeprom" ~kind:Faultinject.Bad_read
              ~trigger:Faultinject.Always ();
          ]
      in
      armed ();
      let v = Faultinject.filter_read ~site:"hw.eeprom" ~addr:3 0xa5 in
      let diff = v lxor 0xa5 in
      check_bool "exactly one bit flipped" true
        (diff <> 0 && diff land (diff - 1) = 0);
      (* deterministic: the same seed corrupts the same bit *)
      armed ();
      check "same seed, same corruption" v
        (Faultinject.filter_read ~site:"hw.eeprom" ~addr:3 0xa5);
      Faultinject.disarm ())

let test_fi_prob_deterministic () =
  run_sim (fun () ->
      let draw () =
        Faultinject.arm ~seed:11
          [
            Faultinject.spec ~site:"p" ~kind:Faultinject.Link_flap
              ~trigger:(Faultinject.Prob 0.3) ();
          ];
        let v =
          List.init 50 (fun _ -> Faultinject.fires ~site:"p" Faultinject.Link_flap)
        in
        Faultinject.disarm ();
        v
      in
      let a = draw () and b = draw () in
      Alcotest.(check (list bool)) "same seed, same pattern" a b;
      check_bool "some fire" true (List.mem true a);
      check_bool "some do not" true (List.mem false a))

(* Allocation regression: an armed Prob check matches its spec and
   draws without boxing a float. *)
let test_fi_prob_alloc () =
  Boot.boot ();
  Faultinject.arm ~seed:5
    [
      Faultinject.spec ~site:"p" ~kind:Faultinject.Link_flap
        ~trigger:(Faultinject.Prob 0.0) ();
    ];
  let fired = ref 0 and n = 10_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    if Faultinject.fires ~site:"p" Faultinject.Link_flap then incr fired
  done;
  let words = (Gc.minor_words () -. w0) /. float_of_int n in
  Faultinject.disarm ();
  check "Prob 0.0 never fires" 0 !fired;
  check_bool (Printf.sprintf "Prob check: %.2f words = 0" words) true (words = 0.)

let test_fi_dma_alloc_hook () =
  run_sim (fun () ->
      Faultinject.arm ~seed:4
        [
          Faultinject.spec ~site:"dma.alloc" ~kind:Faultinject.Alloc_fail
            ~trigger:(Faultinject.Span (1, 1))
            ();
        ];
      check_bool "first DMA allocation fails" true
        (match Dma.alloc_coherent ~tag:"t" 64 with
        | None -> true
        | Some _ -> false);
      check_bool "second succeeds" true
        (match Dma.alloc_coherent ~tag:"t" 64 with
        | None -> false
        | Some _ -> true);
      check "the failure was recorded" 1 (Faultinject.injected_count ());
      Faultinject.disarm ())

let test_fi_boot_resets () =
  Boot.boot ();
  Faultinject.arm ~seed:9
    [
      Faultinject.spec ~site:"x" ~kind:Faultinject.Alloc_fail
        ~trigger:Faultinject.Always ();
    ];
  ignore (Faultinject.fires ~site:"x" Faultinject.Alloc_fail);
  Boot.boot ();
  check_bool "plan disarmed by boot" false (Faultinject.active ());
  check "counters cleared by boot" 0 (Faultinject.injected_count ())

(* A plan that names no read-fault site leaves Io reads alone: they
   return the device's value and draw nothing, so the plan's own draws
   come out as if no read had happened. *)
let test_fi_reads_skip_unnamed_sites () =
  run_sim (fun () ->
      let region =
        Io.register_mmio ~base:0xf100_0000 ~len:0x100
          ~read:(fun off _ -> 0x1234 + off)
          ~write:(fun _ _ _ -> ())
      in
      let arm () =
        Faultinject.arm ~seed:21
          [
            Faultinject.spec ~site:"hw.link" ~kind:Faultinject.Link_flap
              ~trigger:(Faultinject.Prob 0.5) ();
          ]
      in
      let draws ~reads =
        arm ();
        List.init 40 (fun i ->
            if reads then
              check "device value" (0x1234 + (i mod 16) * 4)
                (Io.readl (0xf100_0000 + ((i mod 16) * 4)));
            Faultinject.fires ~site:"hw.link" Faultinject.Link_flap)
      in
      let quiet = draws ~reads:false in
      let with_reads = draws ~reads:true in
      Alcotest.(check (list bool)) "same draw sequence" quiet with_reads;
      check_bool "only link flaps recorded" true
        (List.for_all
           (fun i -> i.Faultinject.inj_site = "hw.link")
           (Faultinject.injections ()));
      Faultinject.disarm ();
      Io.release region)

let test_fi_bad_read_on_mmio () =
  run_sim (fun () ->
      let region =
        Io.register_mmio ~base:0xf200_0000 ~len:0x100
          ~read:(fun _ _ -> 0xa5)
          ~write:(fun _ _ _ -> ())
      in
      Faultinject.arm ~seed:8
        [
          Faultinject.spec ~site:"io.mmio" ~kind:Faultinject.Bad_read
            ~trigger:Faultinject.Always ();
        ];
      for _ = 1 to 8 do
        let diff = Io.readb 0xf200_0010 lxor 0xa5 in
        check_bool "one bit flipped" true (diff <> 0 && diff land (diff - 1) = 0)
      done;
      check "every read recorded" 8 (Faultinject.injected_count ());
      Faultinject.disarm ();
      Io.release region)

(* The Prob trigger's draw is the stdlib's float draw without the box:
   from a copy of the same state it decides the same, and it leaves the
   state where the stdlib would. *)
let prop_prob_draw_matches_float =
  QCheck.Test.make ~name:"prob draw matches Random.State.float" ~count:500
    QCheck.(pair int (oneof [ always 0.; always 1.; float_range 0. 1. ]))
    (fun (seed, p) ->
      let a = Random.State.make [| seed |] in
      let b = Random.State.copy a in
      Bool.equal (Faultinject.draw a p) (Random.State.float b 1.0 < p)
      && Int64.equal (Random.State.bits64 a) (Random.State.bits64 b))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_semaphore_conservation;
      prop_clock_events_never_run_early;
      prop_waitq_wake_all_counts;
      prop_busy_never_exceeds_elapsed;
      prop_clock_matches_model;
      prop_prob_draw_matches_float;
    ]

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_kernel"
    [
      ( "clock",
        [
          tc "consume advances time and busy" test_clock_consume;
          tc "events fire in order" test_clock_event_order;
          tc "cancel" test_clock_cancel;
          tc "recurring events" test_clock_event_reschedules;
          tc "utilization" test_clock_utilization;
          tc "same due time is FIFO" test_clock_same_due_fifo;
          tc "stale ids survive reset" test_clock_stale_id_across_reset;
          tc "stale ids across slab growth" test_clock_growth_stale_ids;
          tc "deep heap with cancels" test_clock_deep_heap_cancels;
          tc "ties deep in the heap" test_clock_deep_ties;
          tc "allocation per event" test_clock_alloc;
          tc "tracked events" test_clock_tracked_events;
        ] );
      ( "latency",
        [
          tc "bucket exactness" test_latency_bucket_exactness;
          tc "small-sample percentiles" test_latency_percentiles_small;
          tc "merge" test_latency_merge;
          tc "overflow accounting" test_latency_overflow;
          tc "path handle across reset" test_latency_path_across_reset;
          tc "interned path unlisted" test_latency_interned_unobserved;
          tc "observe_at allocation" test_latency_observe_at_alloc;
        ] );
      ( "klog",
        [
          tc "dmesg golden" test_dmesg_golden;
          tc "eviction and counts" test_klog_eviction;
          tc "printk allocation" test_printk_alloc;
        ] );
      ( "sched",
        [
          tc "yield interleaves" test_sched_yield_interleaves;
          tc "sleep orders by time" test_sched_sleep_orders_by_time;
          tc "suspend/wake once" test_sched_suspend_wake;
          tc "run until deadline" test_sched_until_ns;
          tc "sleep and wake allocation" test_sched_sleep_alloc;
          tc "yield allocation" test_sched_yield_alloc;
        ] );
      ( "sync",
        [
          tc "no blocking under spinlock" test_spinlock_blocks_forbidden;
          tc "spinlock self deadlock" test_spinlock_self_deadlock;
          tc "semaphore blocks and wakes" test_semaphore_blocks_and_wakes;
          tc "mutex recursion" test_mutex_recursion_bug;
          tc "completion" test_completion;
          tc "combolock kernel fast path" test_combolock_kernel_fast_path;
          tc "combolock converts for user" test_combolock_user_converts_to_semaphore;
          tc "combolock contention accounting"
            test_combolock_contention_accounting;
        ] );
      ( "irq",
        [
          tc "basic delivery" test_irq_basic_delivery;
          tc "disable defers and coalesces" test_irq_disable_defers;
          tc "cpu mask defers" test_irq_masked_cpu_defers;
          tc "spurious" test_irq_spurious;
          tc "delivered at local_irq_restore" test_irq_restore_delivers;
          tc "delivered when the outer handler returns"
            test_irq_handler_return_delivers;
          tc "delivered at enable_irq" test_irq_enable_delivers;
          tc "re-request queues once" test_irq_rerequest_queues_once;
          tc "boot restores the window hook" test_irq_boot_restores_window_hook;
          tc "masked irq allocation" test_irq_masked_alloc;
        ] );
      ( "timer",
        [
          tc "fires at high priority" test_timer_fires_at_high_priority;
          tc "del_timer" test_timer_del;
          tc "rearm" test_timer_rearm;
        ] );
      ( "workqueue",
        [
          tc "process context" test_workqueue_runs_in_process_context;
          tc "defer from timer" test_workqueue_from_timer;
        ] );
      ( "kmem",
        [
          tc "leak tracking" test_kmem_leak_tracking;
          tc "double free" test_kmem_double_free;
          tc "failure injection" test_kmem_injection;
          tc "GFP_KERNEL in irq" test_kmem_gfp_kernel_in_irq_is_bug;
        ] );
      ( "dma",
        [
          tc "alloc/free" test_dma_alloc_free;
          tc "distinct mappings" test_dma_mappings_distinct;
          tc "failure injection" test_dma_respects_injection;
        ] );
      ( "io",
        [
          tc "dispatch" test_io_dispatch;
          tc "overlap rejected" test_io_overlap_rejected;
          tc "many regions" test_io_many_regions;
          tc "enclosing claim rejected" test_io_enclosing_claim_rejected;
        ] );
      ( "pci",
        [
          tc "probe on add" test_pci_probe_on_add;
          tc "probe on register" test_pci_probe_on_register;
          tc "config space" test_pci_config_space;
          tc "populated slot" test_pci_slot_populated;
          tc "rescan by slot" test_pci_rescan_slot;
          tc "detach by slot" test_pci_detach_by_slot;
          tc "probe refusal is quiet" test_pci_refusal_quiet;
        ] );
      ( "netcore",
        [
          tc "rx path" test_netcore_rx_path;
          tc "queue stop" test_netcore_queue_stop;
          tc "names" test_netcore_names;
          tc "names resume from a cursor" test_netcore_names_cursor;
        ] );
      ( "sndcore",
        [
          tc "write blocks until period" test_sndcore_write_blocks_until_period;
          tc "spin discipline forbids blocking" test_sndcore_spin_discipline_forbids_blocking;
        ] );
      ("usbcore", [ tc "bulk_msg roundtrip" test_usb_bulk_msg_roundtrip ]);
      ("inputcore", [ tc "events" test_input_events ]);
      ( "modules",
        [
          tc "init latency" test_module_init_latency;
          tc "failed init" test_module_failed_init;
        ] );
      ("boot", [ tc "quiescence check" test_boot_quiescent ]);
      ( "faultinject",
        [
          tc "span trigger" test_fi_span_trigger;
          tc "stuck reads, addr filtered" test_fi_stuck_reads_respect_addr;
          tc "bad read flips one bit" test_fi_bad_read_flips_one_bit;
          tc "prob trigger deterministic" test_fi_prob_deterministic;
          tc "prob check allocation" test_fi_prob_alloc;
          tc "dma alloc hook" test_fi_dma_alloc_hook;
          tc "boot resets the plan" test_fi_boot_resets;
          tc "reads skip sites no plan names" test_fi_reads_skip_unnamed_sites;
          tc "bad read on mmio flips a bit" test_fi_bad_read_on_mmio;
        ] );
      ("properties", qcheck_cases);
    ]
