(* The trial harness both robustness campaigns run through: boot, plug
   one driver's device, arm the fault plan, and run one supervised
   episode of the driver's traffic around the campaign's action. *)

module K = Decaf_kernel
module FI = K.Faultinject
module Supervisor = Decaf_runtime.Supervisor
open Decaf_drivers
open Decaf_workloads

type body =
  | After of (unit -> unit)
  | Between of (unit -> unit)
  | Suspended of (unit -> unit)

type t = { supervisor : Supervisor.t; kernel_bugs : int; finished : bool }

(* Spurious interrupts are campaign-raised rather than device-raised:
   the clock event asks the fault plan whether to fire, so they obey the
   same trigger/seed discipline as every other fault kind. *)
let schedule_spurious irq =
  List.iter
    (fun at_ns ->
      ignore
        (K.Clock.after at_ns (fun () ->
             if FI.fires ~site:"irq.spurious" FI.Spurious_irq then
               K.Irq.raise_irq irq)))
    [ 2_000_000; 30_000_000; 60_000_000 ]

(* [Driver_core.run] has already probed the driver when the episode
   starts and unloads it (faulting or not) when it ends. *)
let episode dev body () =
  let name = Rig.name dev in
  (* audio plays half its slice on either side of a suspend *)
  let duration_ns =
    match body with
    | Suspended _ when name = "ens1371" -> Some 10_000_000
    | _ -> None
  in
  Rig.up dev;
  Rig.slice ?duration_ns dev;
  match body with
  | After act -> act ()
  | Between act ->
      act ();
      Rig.up dev;
      Rig.slice dev
  | Suspended act ->
      Rig.ok (name ^ "-suspend") (Driver_core.suspend name);
      act ();
      Rig.ok (name ^ "-resume") (Driver_core.resume name);
      Rig.slice ?duration_ns dev

let run ~seed ?(faults = []) driver body =
  Scenario.boot ();
  let dev = Rig.plug driver in
  FI.arm ~seed faults;
  if List.exists (fun s -> s.FI.kind = FI.Spurious_irq) faults then
    schedule_spurious (Rig.irq driver);
  let kernel_bugs = ref 0 and finished = ref false in
  (* A Kernel_bug — or any exception the supervisor failed to contain —
     escaping the scheduler is exactly the outcome the campaigns exist
     to rule out; count it rather than crash the campaign. *)
  (try
     Scenario.in_thread (fun () ->
         finished :=
           Driver_core.run driver ~mode:Driver_env.Decaf (episode dev body)
           <> None)
   with _ -> incr kernel_bugs);
  FI.disarm ();
  let supervisor =
    match Driver_core.supervisor driver with
    | Some sup -> sup
    | None -> Supervisor.create ~name:driver ()
  in
  { supervisor; kernel_bugs = !kernel_bugs; finished = !finished }
