module K = Decaf_kernel
open Decaf_xpc

let kernel_tracker_v = ref (Objtracker.create ~name:"kernel-ot" ())
let java_tracker_v = ref (Objtracker.create ~name:"JavaOT" ())
let kernel_tracker () = !kernel_tracker_v
let java_tracker () = !java_tracker_v
let is_started = ref false

let start () =
  if not !is_started then begin
    is_started := true;
    K.Clock.consume K.Cost.current.jvm_startup_ns;
    K.Klog.printk K.Klog.Info "decaf: user-level runtime started"
  end

let started () = !is_started
let restart_count = ref 0

(* Tear down the user-level runtime after a fault and come back with
   fresh object trackers. The next upcall's [start] re-registers the JVM
   startup cost; the sizeof table survives (it is staged from the driver
   source, not from runtime state). *)
let restart () =
  incr restart_count;
  kernel_tracker_v := Objtracker.create ~name:"kernel-ot" ();
  java_tracker_v := Objtracker.create ~name:"JavaOT" ();
  is_started := false;
  K.Klog.printk K.Klog.Warning
    "decaf: user-level runtime restarted (restart #%d)" !restart_count

let restarts () = !restart_count

module Helpers = struct
  let sizeof_table : (string, int) Hashtbl.t = Hashtbl.create 16

  let read io p = Jeannie.direct (fun io p -> io p) io p
  let inb p = read K.Io.inb p
  let inw p = read K.Io.inw p
  let inl p = read K.Io.inl p
  let outb p v = Jeannie.direct K.Io.outb p v
  let outw p v = Jeannie.direct K.Io.outw p v
  let outl p v = Jeannie.direct K.Io.outl p v
  let readl a = read K.Io.readl a
  let writel a v = Jeannie.direct K.Io.writel a v
  let msleep ms = K.Sched.sleep_ns (ms * 1_000_000)

  let sizeof name =
    match Hashtbl.find_opt sizeof_table name with
    | Some n -> n
    | None -> K.Panic.bug "decaf runtime: sizeof(%s) not registered" name

  let register_sizeof name n = Hashtbl.replace sizeof_table name n
end

module Nuclear = struct
  let wq = ref None
  let count = ref 0

  let get_wq () =
    match !wq with
    | Some w -> w
    | None ->
        let w = K.Workqueue.create ~name:"decaf-nuclear" in
        wq := Some w;
        w

  let defer f =
    incr count;
    K.Workqueue.queue_work (get_wq ()) f

  let flush () = match !wq with Some w -> K.Workqueue.flush w | None -> ()
  let deferred_count () = !count
end

(* Runs after the tracker registry's own boot reset, so the registry
   holds exactly this life's two trackers. *)
let () =
  K.Boot.on_reset @@ fun () ->
  kernel_tracker_v := Objtracker.create ~name:"kernel-ot" ();
  java_tracker_v := Objtracker.create ~name:"JavaOT" ();
  is_started := false;
  restart_count := 0;
  Hashtbl.reset Helpers.sizeof_table;
  Nuclear.wq := None;
  Nuclear.count := 0
