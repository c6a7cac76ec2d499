(* chkdev: the synthetic device the exploration episodes drive.

   It is deliberately tiny but touches every mechanism the checker's
   invariants watch: a spinlock-protected counter shared with its
   interrupt handler (lockset discipline), a shared ring produced from
   irq context (doorbell/teardown races), a deferred notification whose
   thunk can observe delivery into a dead binding (the PR-1 bug class),
   a kernel-tracker capability handle (leak on unbind), and a pair of
   combolocks acquired nested (acquisition-order discipline — the
   mutated path reverses them). It registers through the real
   {!Decaf_drivers.Driver_core} registry so every lifecycle operation an
   episode performs exercises the production FSM, supervision and drain
   paths, not a test double. *)

module K = Decaf_kernel
module Xpc = Decaf_xpc
module Guard = Decaf_xpc.Guard
open Decaf_drivers

let name = "chkdev"
let irq_base = 77

(* --- per-execution observations, read by episode checks --- *)

let after_free : string list ref = ref []
let note_after_free what = after_free := what :: !after_free
let reset_observations () = after_free := []

(* --- slot table for the shared ring --- *)

let ring_ev_tick = 1

let ring_table =
  Xpc.Ring.table ~type_id:"chkdev_slot" ~kinds:[ ring_ev_tick ]
    ~arg0:Guard.Non_negative ~arg1:Guard.Non_negative

let kernel_tracker () = Decaf_runtime.Runtime.kernel_tracker ()

type dev = {
  d_id : string;  (* binding id: "chkdev" or "chkdev#k" *)
  d_irq : int;
  d_lock : K.Sync.Spinlock.t;
  mutable d_count : int;
  d_count_trace : K.Ktrace.obj;  (* Var "<d_id>.count", built once *)
  d_lo_a : K.Sync.Combolock.t;
  d_lo_b : K.Sync.Combolock.t;
  d_ring : Xpc.Ring.t option;
  d_handle : Xpc.Objtracker.handle;
  mutable d_destroyed : bool;
  d_env : Driver_env.t;
}

let instances : (string, dev) Hashtbl.t = Hashtbl.create 4

let instance_index id =
  (* "chkdev" -> 0, "chkdev#k" -> k *)
  match String.index_opt id '#' with
  | None -> 0
  | Some i ->
      int_of_string (String.sub id (i + 1) (String.length id - i - 1))

let irq_of_id id = irq_base + instance_index id

(* The counter every context updates; the spinlock plus irq masking is
   the discipline the lockset check certifies. *)
let bump d =
  K.Sync.Spinlock.lock_irqsave d.d_lock;
  d.d_count <- d.d_count + 1;
  K.Ktrace.note d.d_count_trace K.Ktrace.Write;
  K.Sync.Spinlock.unlock_irqrestore d.d_lock

let read_count d =
  K.Sync.Spinlock.lock_irqsave d.d_lock;
  K.Ktrace.note d.d_count_trace K.Ktrace.Read;
  let v = d.d_count in
  K.Sync.Spinlock.unlock_irqrestore d.d_lock;
  v

let irq_handler d () =
  bump d;
  match d.d_ring with
  | Some r ->
      ignore
        (Xpc.Ring.produce r
           {
             Xpc.Ring.kind = ring_ev_tick;
             handle = d.d_handle;
             arg0 = read_count d;
             arg1 = 0;
           })
  | None -> ()

(* Process-context work: bump the counter and post a deferred
   notification. The thunk observing [d_destroyed] is the detector for
   the drop-drain mutant — a notification delivered after unbind is the
   deferred call outliving its driver. *)
let kick d =
  bump d;
  Driver_env.notify d.d_env ~name:"chkdev_tick" ~bytes:8 (fun () ->
      if d.d_destroyed then
        note_after_free
          (Printf.sprintf "%s: deferred notification delivered after unbind"
             d.d_id))

(* Two code paths nesting the combolock pair. The clean tree acquires
   A -> B on both; [Mutants.swap_lock_order] reverses the second path
   into the classic AB/BA cycle. *)
let kick_pair d =
  K.Sync.Combolock.with_kernel d.d_lo_a (fun () ->
      K.Sync.Combolock.with_kernel d.d_lo_b (fun () -> bump d))

let flush_pair d =
  if !K.Mutants.swap_lock_order then
    K.Sync.Combolock.with_kernel d.d_lo_b (fun () ->
        K.Sync.Combolock.with_kernel d.d_lo_a (fun () -> bump d))
  else
    K.Sync.Combolock.with_kernel d.d_lo_a (fun () ->
        K.Sync.Combolock.with_kernel d.d_lo_b (fun () -> bump d))

let find id = Hashtbl.find_opt instances id

module Core : Driver_core.DRIVER with type t = dev = struct
  type t = dev

  let name = name
  let bus = K.Hotplug.Pci
  let ids = [ (0x1de0, 0xc0de) ]

  let probe (env : Driver_env.t) ~dev:_ =
    let id = Driver_env.scope_or env name in
    let idx = instance_index id in
    let handle =
      Xpc.Objtracker.issue (kernel_tracker ()) ~addr:(0xCD00 + idx)
        ~type_id:(Xpc.Codec.type_id ring_table)
    in
    let ring =
      Driver_env.ring env ~name:id ~guard:(Xpc.Codec.guard ring_table)
        ~resolve:(fun handle ->
          Xpc.Objtracker.resolve (kernel_tracker ()) ~handle
            ~type_id:(Xpc.Codec.type_id ring_table))
        ~apply:ignore
    in
    let d =
      {
        d_id = id;
        d_irq = irq_of_id id;
        d_lock = K.Sync.Spinlock.create ~name:id ();
        d_count = 0;
        d_count_trace = K.Ktrace.Var (id ^ ".count");
        d_lo_a = K.Sync.Combolock.create ~name:(id ^ "-A") ();
        d_lo_b = K.Sync.Combolock.create ~name:(id ^ "-B") ();
        d_ring = ring;
        d_handle = handle;
        d_destroyed = false;
        d_env = env;
      }
    in
    (* one upcall so the probe itself pays a crossing like a real
       split driver's bring-up *)
    Driver_env.upcall env ~name:"chkdev_init" ~bytes:16 (fun () -> ());
    K.Irq.request_irq d.d_irq ~name:id (irq_handler d);
    Hashtbl.replace instances id d;
    Ok d

  let remove d =
    (* quiesce the interrupt source first, then tear down the XPC
       surface, then drop the capability *)
    K.Irq.free_irq d.d_irq;
    (match d.d_ring with Some r -> Xpc.Ring.destroy r | None -> ());
    Xpc.Objtracker.remove_by_handle (kernel_tracker ()) ~handle:d.d_handle;
    d.d_destroyed <- true;
    Hashtbl.remove instances d.d_id

  let suspend d = ignore (read_count d)
  let resume d = ignore (read_count d)
  let owns d id = id = d.d_id
  let init_latency_ns _ = 0
end

let register () =
  Hashtbl.reset instances;
  reset_observations ();
  Driver_core.register (Driver_core.Pack (module Core))
