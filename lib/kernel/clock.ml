(* The event queue is an array-backed binary min-heap ordered by
   (due, seq). [seq] is assigned monotonically by [at], so events
   scheduled for the same due time fire in scheduling order (FIFO): no
   two events share a key, and the firing order is a function of the
   schedule alone. An event id is the queued record itself. It carries
   its own heap slot, so [cancel] removes it in place and [pending] is a
   field read; a record that leaves the heap (fired, cancelled, or
   orphaned by [reset]) gets slot -1, so an id kept across a reboot can
   never reach into the fresh heap. *)
type event = { due : int; seq : int; fn : unit -> unit; mutable slot : int }
type event_id = event

let vacant = { due = max_int; seq = max_int; fn = ignore; slot = -1 }
let heap = ref (Array.make 256 vacant)
let size = ref 0
let time = ref 0
let busy = ref 0
let seq = ref 0

let now () = !time
let busy_ns () = !busy

let utilization ~since ~busy_since =
  let window = !time - since in
  if window <= 0 then 0.
  else float_of_int (!busy - busy_since) /. float_of_int window

let before a b = a.due < b.due || (a.due = b.due && a.seq < b.seq)

let place e i =
  !heap.(i) <- e;
  e.slot <- i

let rec sift_up e i =
  let parent = (i - 1) / 2 in
  if i > 0 && before e !heap.(parent) then begin
    place !heap.(parent) i;
    sift_up e parent
  end
  else place e i

let rec sift_down e i =
  let h = !heap and n = !size in
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
  if c < n && before h.(c) e then begin
    place h.(c) i;
    sift_down e c
  end
  else place e i

(* Take [e] out of the heap: the last record fills its slot and moves up
   or down to restore the order. *)
let remove e =
  let i = e.slot and n = !size - 1 in
  let last = !heap.(n) in
  !heap.(n) <- vacant;
  size := n;
  e.slot <- -1;
  if i < n then
    if i > 0 && before last !heap.((i - 1) / 2) then sift_up last i
    else sift_down last i

let fire e =
  remove e;
  if e.due > !time then time := e.due;
  e.fn ()

(* Run every event due at or before [t], in due order. An event callback
   may itself consume time or schedule new events; events that become due
   as a result are delivered too. *)
let rec deliver_until t =
  if !size > 0 && !heap.(0).due <= t then begin
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
    if !size > 0 && !heap.(0).due <= !time + !remaining then begin
      let e = !heap.(0) in
      remaining := !remaining - max 0 (e.due - !time);
      fire e
    end
    else begin
      time := !time + !remaining;
      remaining := 0
    end
  done

let scheduled () = !seq

let at t f =
  incr seq;
  let e = { due = max t !time; seq = !seq; fn = f; slot = -1 } in
  let n = !size in
  if n = Array.length !heap then begin
    let bigger = Array.make (2 * n) vacant in
    Array.blit !heap 0 bigger 0 n;
    heap := bigger
  end;
  size := n + 1;
  sift_up e n;
  e

let after ns f = at (!time + ns) f
let cancel e = if e.slot >= 0 then remove e
let pending e = e.slot >= 0
let has_events () = !size > 0

let advance_to_next_event () =
  if !size = 0 then false
  else begin
    let due = !heap.(0).due in
    if due > !time then time := due;
    deliver_until !time;
    true
  end

(* --- tracked events ---------------------------------------------------

   A tracked event is a birth stamp paired with a completion stamp; the
   elapsed virtual time lands in the per-path histogram registry
   ({!Latency}). Two shapes:

   - [track]/[complete]: an explicit handle, for code that can carry the
     birth stamp alongside the object it describes (an irq line, a ring
     slot, a batch item).
   - [track_begin]/[track_end]: FIFO-paired stamps for pipelines that
     preserve order but lose identity (a NIC's rx fifo, the mouse byte
     stream); the oldest outstanding birth completes first. *)

type track = { t_path : string; t_born : int }

let track path = { t_path = path; t_born = !time }

let complete tr =
  let dt = max 0 (!time - tr.t_born) in
  Latency.observe_path tr.t_path dt;
  dt

(* Each FIFO is bounded: a producer whose consumer died (an ejected
   device mid-storm) must not grow births without limit, so past the cap
   the oldest birth is discarded. *)
let fifo_cap = 65_536
let span_fifos : (string, int Queue.t) Hashtbl.t = Hashtbl.create 16

let span_fifo key =
  match Hashtbl.find_opt span_fifos key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.replace span_fifos key q;
      q

let track_begin ?key path =
  let q = span_fifo (Option.value ~default:path key) in
  if Queue.length q >= fifo_cap then ignore (Queue.pop q);
  Queue.push !time q

let track_end ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> None
  | Some q -> (
      match Queue.take_opt q with
      | None -> None
      | Some born ->
          let dt = max 0 (!time - born) in
          Latency.observe_path path dt;
          Some dt)

let track_discard ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> ()
  | Some q -> ignore (Queue.take_opt q)

(* Hotplug can orphan every outstanding birth at once (the device that
   stamped them is gone); draining keeps later completions from pairing
   with births that predate the replug. *)
let track_drain ?key path =
  match Hashtbl.find_opt span_fifos (Option.value ~default:path key) with
  | None -> ()
  | Some q -> Queue.clear q

let tracks_in_flight () =
  Hashtbl.fold (fun _ q acc -> acc + Queue.length q) span_fifos 0

let reset () =
  let h = !heap in
  for i = 0 to !size - 1 do
    h.(i).slot <- -1;
    h.(i) <- vacant
  done;
  size := 0;
  seq := 0;
  time := 0;
  busy := 0;
  Hashtbl.reset span_fifos;
  Latency.reset ()

let () = Klog.set_timestamp_source now
