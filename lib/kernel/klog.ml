type level = Emerg | Err | Warning | Info | Debug

let level_tag = function
  | Emerg -> "EMERG"
  | Err -> "ERR"
  | Warning -> "WARN"
  | Info -> "INFO"
  | Debug -> "DEBUG"

(* [dmesg] renders the timestamp: nothing reads the log during a run. *)
type entry = { level : level; ts : int; text : string }

let buffer : entry Queue.t = Queue.create ()
let capacity = 16_384
let timestamp_of = ref (fun () -> 0)

(* Clock depends on nothing; Klog must not depend on Clock to avoid a
   cycle, so Clock installs the timestamp source at module init. *)
let set_timestamp_source f = timestamp_of := f

let printk level fmt =
  Printf.ksprintf
    (fun text ->
      if Queue.length buffer >= capacity then ignore (Queue.pop buffer);
      Queue.push { level; ts = !timestamp_of (); text } buffer)
    fmt

let dmesg () =
  Queue.fold
    (fun acc e ->
      let ts = float_of_int e.ts /. 1e9 in
      Printf.sprintf "<%s>[%10.6f] %s" (level_tag e.level) ts e.text :: acc)
    [] buffer
  |> List.rev

let clear () = Queue.clear buffer

let count level =
  Queue.fold (fun n e -> if e.level = level then n + 1 else n) 0 buffer
