(* The event queue is a binary min-heap ordered by (due, seq) over a
   slab of event slots. [seq] is assigned monotonically by [at], so
   events scheduled for the same due time fire in scheduling order
   (FIFO): no two events share a key, and the firing order is a function
   of the schedule alone.

   A slot's due time, seq, heap position and current id live in int
   arrays and its callback in one more, so a sift moves ints only and
   never stores a young pointer into the long-lived heap array. Freed
   slots go on a stack and are reused.

   An event id is the slot number tagged with a stamp that no other
   event ever gets, not even across [reset]. [pending] and [cancel]
   compare it with the id the slot holds now, so an id whose event has
   fired, been cancelled or been orphaned by a reboot never matches
   again, even when its slot carries a fresh event. *)
type event_id = int

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1
let no_id = -1
let due = ref (Array.make 256 0)
let seqs = ref (Array.make 256 0)
let pos = ref (Array.make 256 0) (* heap index of a queued slot *)
let ids = ref (Array.make 256 no_id)
let fns = ref (Array.make 256 ignore)
let heap = ref (Array.make 256 0) (* slot numbers *)
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

let before (d : int array) (q : int array) a b =
  d.(a) < d.(b) || (d.(a) = d.(b) && q.(a) < q.(b))

let place s i =
  !heap.(i) <- s;
  !pos.(s) <- i

let rec sift_up s i =
  let parent = (i - 1) / 2 in
  if i > 0 && before !due !seqs s !heap.(parent) then begin
    place !heap.(parent) i;
    sift_up s parent
  end
  else place s i

let rec sift_down s i =
  let h = !heap and n = !size and d = !due and q = !seqs in
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before d q h.(l + 1) h.(l) then l + 1 else l in
  if c < n && before d q h.(c) s then begin
    place h.(c) i;
    sift_down s c
  end
  else place s i

(* Free slot [s]: its id stops matching and its callback is dropped. *)
let release s =
  !ids.(s) <- no_id;
  !fns.(s) <- ignore;
  !free.(!nfree) <- s;
  incr nfree

(* Take slot [s] out of the heap and free it: the last slot fills its
   place and moves up or down to restore the order. *)
let remove s =
  let i = !pos.(s) and n = !size - 1 in
  let last = !heap.(n) in
  size := n;
  if i < n then
    if i > 0 && before !due !seqs last !heap.((i - 1) / 2) then sift_up last i
    else sift_down last i;
  release s

let fire s =
  let fn = !fns.(s) and d = !due.(s) in
  remove s;
  if d > !time then time := d;
  fn ()

(* Run every event due at or before [t], in due order. An event callback
   may itself consume time or schedule new events; events that become due
   as a result are delivered too. *)
let rec deliver_until t =
  if !size > 0 && !due.(!heap.(0)) <= t then begin
    fire !heap.(0);
    deliver_until (max t !time)
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
    if !size > 0 && !due.(!heap.(0)) <= !time + !remaining then begin
      let s = !heap.(0) in
      remaining := !remaining - max 0 (!due.(s) - !time);
      fire s
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
  pos := widen !pos 0;
  ids := widen !ids no_id;
  fns := widen !fns ignore;
  heap := widen !heap 0;
  free := Array.init (2 * n) (fun i -> (2 * n) - 1 - i);
  nfree := n

let at t f =
  incr seq;
  incr stamp;
  if !nfree = 0 then grow ();
  decr nfree;
  let s = !free.(!nfree) in
  let id = (!stamp lsl slot_bits) lor s in
  !due.(s) <- max t !time;
  !seqs.(s) <- !seq;
  !ids.(s) <- id;
  !fns.(s) <- f;
  let n = !size in
  size := n + 1;
  sift_up s n;
  id

let after ns f = at (!time + ns) f
let pending id = id >= 0 && !ids.(id land slot_mask) = id
let cancel id = if pending id then remove (id land slot_mask)
let has_events () = !size > 0

let advance_to_next_event () =
  if !size = 0 then false
  else begin
    let d = !due.(!heap.(0)) in
    if d > !time then time := d;
    deliver_until !time;
    true
  end

(* --- tracked events ---------------------------------------------------

   A tracked event is a birth stamp paired with a completion stamp; the
   elapsed virtual time lands in the path's histogram ({!Latency}). Two
   shapes:

   - [track]/[complete]: an explicit handle, for code that can carry the
     birth stamp alongside the object it describes (an irq line, a ring
     slot, a batch item).
   - [track_begin]/[track_end]: FIFO-paired stamps for pipelines that
     preserve order but lose identity (a NIC's rx fifo, the mouse byte
     stream); the oldest outstanding birth completes first. *)

type track = { t_path : Latency.path; t_born : int }

let track path = { t_path = path; t_born = !time }

let complete tr =
  let dt = max 0 (!time - tr.t_born) in
  Latency.observe_at tr.t_path dt;
  dt

(* Each FIFO is bounded: a producer whose consumer died (an ejected
   device mid-storm) must not grow births without limit, so past the cap
   the oldest birth is discarded. *)
let fifo_cap = 65_536
let span_fifos : (string, int Queue.t) Hashtbl.t = Hashtbl.create 16
let fifo_key ?key path = match key with Some k -> k | None -> Latency.name path

let track_begin ?key path =
  let key = fifo_key ?key path in
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

let track_end ?key path =
  match Hashtbl.find_opt span_fifos (fifo_key ?key path) with
  | None -> None
  | Some q -> (
      match Queue.take_opt q with
      | None -> None
      | Some born ->
          let dt = max 0 (!time - born) in
          Latency.observe_at path dt;
          Some dt)

let track_discard ?key path =
  match Hashtbl.find_opt span_fifos (fifo_key ?key path) with
  | None -> ()
  | Some q -> ignore (Queue.take_opt q)

(* Hotplug can orphan every outstanding birth at once (the device that
   stamped them is gone); draining keeps later completions from pairing
   with births that predate the replug. *)
let track_drain ?key path =
  match Hashtbl.find_opt span_fifos (fifo_key ?key path) with
  | None -> ()
  | Some q -> Queue.clear q

let tracks_in_flight () =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) span_fifos 0

let reset () =
  for i = 0 to !size - 1 do
    release !heap.(i)
  done;
  size := 0;
  seq := 0;
  time := 0;
  busy := 0;
  Hashtbl.reset span_fifos;
  Latency.reset ()

let () = Klog.set_timestamp_source now
