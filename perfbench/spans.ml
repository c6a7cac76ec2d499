(* The traced pass. Three sources, all through public entry points:

   - a span around every call the benchmark makes into the simulator
     (boot, device models, binds, opens, traffic, lifecycle ops, unloads);
   - one span per scheduler step, through [Sched.set_controller]. The
     controller always answers 0, which is the uncontrolled FIFO
     schedule, so the simulation is unchanged; a step runs from one
     decision point to the next and is named by its thread's class, or
     "clock" when the step delivers clock events;
   - counts per object class of the boundary events the simulator
     reports to [Ktrace] (combolocks, irq lines, rings, xpc lanes,
     tracker shards).

   Spans stay in memory and are written once, as Chrome trace-event
   JSON, when the run ends. With tracing off every entry point is one
   test of a flag. *)

module K = Decaf_kernel

type span = {
  name : string;
  track : int;  (** 1: benchmark calls, 2: scheduler steps *)
  start_ns : int;
  mutable end_ns : int;
  parent : int;  (** index of the enclosing benchmark span, or -1 *)
  run : int;  (** machine life the span belongs to *)
}

let on = ref false
let spans : span array ref = ref [||]
let count = ref 0
let origin = ref 0
let stack : int list ref = ref []
let run_id = ref 0
let open_step = ref (-1)
let notes : (string, int ref) Hashtbl.t = Hashtbl.create 16
let thread_classes : (string, string) Hashtbl.t = Hashtbl.create 16

let dummy =
  { name = ""; track = 0; start_ns = 0; end_ns = 0; parent = -1; run = 0 }

let push s =
  if !count = Array.length !spans then begin
    let bigger = Array.make (max 1024 (2 * !count)) dummy in
    Array.blit !spans 0 bigger 0 !count;
    spans := bigger
  end;
  !spans.(!count) <- s;
  incr count;
  !count - 1

let top () = match !stack with i :: _ -> i | [] -> -1

let start ~track name =
  push
    {
      name;
      track;
      start_ns = Host.now_ns () - !origin;
      end_ns = -1;
      parent = top ();
      run = !run_id;
    }

let finish i = !spans.(i).end_ns <- Host.now_ns () - !origin

(* [with_span name f]: f's host interval, nested under the innermost
   open benchmark span. *)
let with_span name f =
  if not !on then f ()
  else begin
    let i = start ~track:1 name in
    stack := i :: !stack;
    Fun.protect
      ~finally:(fun () ->
        finish i;
        stack := List.tl !stack)
      f
  end

let new_run () = if !on then incr run_id

(* "soak-fleet" stays; "kworker/xpc-ring/3" becomes "kworker/xpc-ring":
   steps are grouped by what a thread does, not which instance it is. *)
let thread_class name =
  match Hashtbl.find_opt thread_classes name with
  | Some c -> c
  | None ->
      let base =
        match String.index_opt name '#' with
        | Some i -> String.sub name 0 i
        | None -> name
      in
      let n = ref (String.length base) in
      while !n > 1 && base.[!n - 1] >= '0' && base.[!n - 1] <= '9' do
        decr n
      done;
      if !n > 1 && !n < String.length base && base.[!n - 1] = '/' then decr n;
      let c = String.sub base 0 !n in
      Hashtbl.replace thread_classes name c;
      c

let close_step () =
  if !open_step >= 0 then begin
    finish !open_step;
    open_step := -1
  end

let controller choices =
  close_step ();
  let name =
    match choices.(0) with
    | K.Sched.Run_thread t -> thread_class (K.Sched.thread_name t)
    | K.Sched.Advance_clock -> "clock"
  in
  open_step := start ~track:2 name;
  0

(* [around_sched f] runs a call that drives [Sched.run] and closes the
   last step when the scheduler returns. *)
let around_sched f =
  if not !on then f ()
  else
    Fun.protect ~finally:close_step f

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

(* Lock tags read "kind:name#id"; queue names "kind:owner". *)
let obj_class = function
  | K.Ktrace.Irq_line _ -> "irq"
  | K.Ktrace.Var _ -> "var"
  | K.Ktrace.Lock tag -> (
      match String.index_opt tag ':' with
      | Some i when String.sub tag 0 i = "combo" ->
          if contains tag "/shard" then "tracker_shard" else "combolock"
      | Some i -> String.sub tag 0 i
      | None -> "lock")
  | K.Ktrace.Queue name -> (
      match String.index_opt name ':' with
      | Some i -> String.sub name 0 i
      | None -> "waitq")

let note o _ =
  let c = obj_class o in
  match Hashtbl.find_opt notes c with
  | Some r -> incr r
  | None -> Hashtbl.replace notes c (ref 1)

let enable () =
  on := true;
  spans := [||];
  count := 0;
  stack := [];
  run_id := 0;
  open_step := -1;
  Hashtbl.reset notes;
  origin := Host.now_ns ();
  K.Sched.set_controller controller;
  K.Ktrace.set_hook note

let disable () =
  close_step ();
  on := false;
  K.Sched.clear_controller ();
  K.Ktrace.clear_hook ()

let note_count cls =
  match Hashtbl.find_opt notes cls with Some r -> !r | None -> 0

let notes_total () = Hashtbl.fold (fun _ r acc -> acc + !r) notes 0

(* Host seconds spent in scheduler steps, split into thread steps and
   clock-event steps. *)
let step_seconds () =
  let thread = ref 0 and clock = ref 0 and steps = ref 0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    if s.track = 2 && s.end_ns >= 0 then begin
      incr steps;
      let d = s.end_ns - s.start_ns in
      if s.name = "clock" then clock := !clock + d else thread := !thread + d
    end
  done;
  (!steps, Host.seconds !thread, Host.seconds !clock)

(* Chrome trace-event JSON: complete ("X") events in microseconds, one
   thread track per span source, and the Ktrace class counts as one
   counter ("C") event at the end. Perfetto and chrome://tracing open
   it. *)
let write_chrome ~path ~meta =
  let oc = open_out_bin path in
  let b = Buffer.create (1 lsl 16) in
  let flush () =
    Buffer.output_buffer oc b;
    Buffer.clear b
  in
  let us ns = float_of_int ns /. 1e3 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%S" k v)
    meta;
  Buffer.add_string b "},\"traceEvents\":[\n";
  List.iter
    (fun (tid, label) ->
      Printf.bprintf b
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}},\n"
        tid label)
    [ (1, "benchmark calls"); (2, "scheduler steps") ];
  let last = ref 0 in
  for i = 0 to !count - 1 do
    let s = !spans.(i) in
    let e = if s.end_ns < 0 then s.start_ns else s.end_ns in
    last := max !last e;
    Printf.bprintf b
      "{\"name\":%S,\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{\"id\":%d,\"parent\":%d,\"run\":%d}},\n"
      s.name
      (if s.track = 1 then "bench" else "sched")
      (us s.start_ns)
      (us (e - s.start_ns))
      s.track i s.parent s.run;
    if Buffer.length b > 1 lsl 20 then flush ()
  done;
  Printf.bprintf b "{\"name\":\"ktrace\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,\"args\":{"
    (us !last);
  let classes =
    List.sort compare (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) notes [])
  in
  List.iteri
    (fun i (k, n) ->
      if i > 0 then Buffer.add_char b ',';
      Printf.bprintf b "%S:%d" k n)
    classes;
  Buffer.add_string b "}}\n]}\n";
  flush ();
  close_out oc
