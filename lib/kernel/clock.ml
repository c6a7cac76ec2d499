(* The event queue is a binary min-heap ordered by (due, seq) over a
   slab of event slots. [seq] is assigned monotonically by [at], so
   events scheduled for the same due time fire in scheduling order
   (FIFO): no two events share a key, and the firing order is a function
   of the schedule alone.

   The heap is three int arrays indexed by heap position: an entry's
   due time, its seq and its slot. No comparison chases a slot number
   into the slab, and the two children a sift weighs sit side by side.
   A slot's heap position, current id and callback live in arrays
   indexed by slot; a sift moves ints only and never stores a young
   pointer into a long-lived array. Freed slots go on a stack and are
   reused.

   An event id is the slot number tagged with a stamp that no other
   event ever gets, not even across [reset]. [pending] and [cancel]
   compare it with the id the slot holds now, so an id whose event has
   fired, been cancelled or been orphaned by a reboot never matches
   again, even when its slot carries a fresh event. *)
type event_id = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let no_id = -1
let due = ref (Array.make 256 0) (* by heap position *)
let seqs = ref (Array.make 256 0) (* by heap position *)
let slots = ref (Array.make 256 0) (* by heap position *)
let pos = ref (Array.make 256 0) (* heap position of a queued slot *)
let ids = ref (Array.make 256 no_id)
let fns = ref (Array.make 256 ignore)
let free = ref (Array.init 256 (fun i -> 255 - i)) (* stack of free slots *)
let nfree = ref 256
let size = ref 0
let stamp = ref 0 (* never reset *)
let time = ref 0
let busy = ref 0
let seq = ref 0

let now () = !time
let busy_ns () = !busy

let utilization ~since ~busy_since =
  let window = !time - since in
  if window <= 0 then 0.
  else float_of_int (!busy - busy_since) /. float_of_int window

(* Settle the entry (d, q, s) into the hole at heap position [i]: the
   hole rises past later parents or sinks past earlier children (only
   one of the two can happen). Each step copies one entry into the hole
   and updates that entry's [pos]; (d, q, s) is written once, where the
   hole stops. The earlier child is picked by arithmetic, not by a
   branch on random data; seq decides only between equal dues, which
   is rare. *)
let sift d q s i =
  let hd = !due and hq = !seqs and hs = !slots and p = !pos and n = !size in
  let i = ref i and j = ref ((i - 1) / 2) and go = ref true in
  while !i > 0 && (d < hd.(!j) || (d = hd.(!j) && q < hq.(!j))) do
    hd.(!i) <- hd.(!j);
    hq.(!i) <- hq.(!j);
    hs.(!i) <- hs.(!j);
    p.(hs.(!j)) <- !i;
    i := !j;
    j := (!j - 1) / 2
  done;
  while !go && (2 * !i) + 1 < n do
    let l = (2 * !i) + 1 in
    let r = if l + 1 < n then l + 1 else l in
    let c =
      if hd.(r) <> hd.(l) then l + Bool.to_int (hd.(r) < hd.(l))
      else l + Bool.to_int (hq.(r) < hq.(l))
    in
    if hd.(c) < d || (hd.(c) = d && hq.(c) < q) then begin
      hd.(!i) <- hd.(c);
      hq.(!i) <- hq.(c);
      hs.(!i) <- hs.(c);
      p.(hs.(c)) <- !i;
      i := c
    end
    else go := false
  done;
  hd.(!i) <- d;
  hq.(!i) <- q;
  hs.(!i) <- s;
  p.(s) <- !i

(* Free slot [s]: its id stops matching and its callback is dropped. *)
let release s =
  !ids.(s) <- no_id;
  !fns.(s) <- ignore;
  !free.(!nfree) <- s;
  incr nfree

(* Take slot [s] out of the heap and free it: the last entry fills its
   place and moves up or down to restore the order. *)
let remove s =
  let i = !pos.(s) and n = !size - 1 in
  size := n;
  if i < n then sift !due.(n) !seqs.(n) !slots.(n) i;
  release s

let fire () =
  let s = !slots.(0) and d = !due.(0) in
  let fn = !fns.(s) in
  remove s;
  if d > !time then time := d;
  fn ()

(* Run every event due at or before [t], in due order. An event callback
   may itself consume time or schedule new events; events that become due
   as a result are delivered too. *)
let rec deliver_until t =
  if !size > 0 && !due.(0) <= t then begin
    fire ();
    deliver_until (Int.max t !time)
  end

(* Busy work is preemptible: an event (interrupt) due mid-interval runs
   at its due time, and the interrupted work's remaining duration resumes
   afterwards — so elapsed time always covers the handler's own
   consumption and utilization can never exceed 100%. *)
let consume ns =
  if ns < 0 then Panic.bug "Clock.consume: negative duration %d" ns;
  busy := !busy + ns;
  let remaining = ref ns in
  while !remaining > 0 do
    if !size > 0 && !due.(0) <= !time + !remaining then begin
      remaining := !remaining - Int.max 0 (!due.(0) - !time);
      fire ()
    end
    else begin
      time := !time + !remaining;
      remaining := 0
    end
  done

let scheduled () = !seq

(* Double every slab array; the new slots start free. *)
let grow () =
  let n = Array.length !due in
  if 2 * n > slot_mask + 1 then Panic.bug "Clock: more than %d pending events" n;
  let widen a fill =
    let b = Array.make (2 * n) fill in
    Array.blit a 0 b 0 n;
    b
  in
  due := widen !due 0;
  seqs := widen !seqs 0;
  slots := widen !slots 0;
  pos := widen !pos 0;
  ids := widen !ids no_id;
  fns := widen !fns ignore;
  free := Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  nfree := n

let at t f =
  incr seq;
  incr stamp;
  if !nfree = 0 then grow ();
  decr nfree;
  let s = !free.(!nfree) in
  let id = (!stamp lsl slot_bits) lor s in
  !ids.(s) <- id;
  !fns.(s) <- f;
  let n = !size in
  size := n + 1;
  sift (Int.max t !time) !seq s n;
  id

let after ns f = at (!time + ns) f
let no_event = no_id
let pending id = id >= 0 && !ids.(id land slot_mask) = id
let cancel id = if pending id then remove (id land slot_mask)
let has_events () = !size > 0

let advance_to_next_event () =
  if !size = 0 then false
  else begin
    let d = !due.(0) in
    if d > !time then time := d;
    deliver_until !time;
    true
  end

(* --- tracked events ---------------------------------------------------

   A tracked event is a birth stamp paired with a completion stamp; the
   elapsed virtual time lands in the path's histogram ({!Latency}). Two
   shapes:

   - [complete_since]: the birth is a plain [now ()] int that the code
     carries alongside the object it describes (a crossing, a frame, a
     ring slot, a batch item).
   - [track_begin]/[track_end]: FIFO-paired stamps for pipelines that
     preserve order but lose identity (a NIC's rx fifo, the mouse byte
     stream); the oldest outstanding birth completes first. *)

let complete_since path born = Latency.observe_at path (Int.max 0 (!time - born))

(* Each FIFO is bounded: a producer whose consumer died (an ejected
   device mid-storm) must not grow births without limit, so past the cap
   the oldest birth is discarded. *)
let fifo_cap = 65_536
let span_fifos : (string, int Queue.t) Hashtbl.t = Hashtbl.create 16

let track_begin path =
  let key = Latency.name path in
  let q =
    match Hashtbl.find_opt span_fifos key with
    | Some q -> q
    | None ->
        let q = Queue.create () in
        Hashtbl.replace span_fifos key q;
        q
  in
  if Queue.length q >= fifo_cap then ignore (Queue.pop q);
  Queue.push !time q

let track_end path =
  match Hashtbl.find_opt span_fifos (Latency.name path) with
  | None -> None
  | Some q -> (
      match Queue.take_opt q with
      | None -> None
      | Some born ->
          let dt = Int.max 0 (!time - born) in
          Latency.observe_at path dt;
          Some dt)

(* Hotplug can orphan every outstanding birth at once (the device that
   stamped them is gone); draining keeps later completions from pairing
   with births that predate the replug. *)
let track_drain path =
  match Hashtbl.find_opt span_fifos (Latency.name path) with
  | None -> ()
  | Some q -> Queue.clear q

let reset () =
  for i = 0 to !size - 1 do
    release !slots.(i)
  done;
  size := 0;
  seq := 0;
  time := 0;
  busy := 0;
  Hashtbl.reset span_fifos;
  Latency.reset ()

let () = Klog.set_timestamp_source now
