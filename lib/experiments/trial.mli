(** The campaign trial harness shared by {!Faultcampaign} and
    {!Maliciouscampaign}.

    A trial boots the machine, plugs one driver's device
    ({!Decaf_workloads.Rig.plug}), arms the fault plan, and runs one
    supervised episode ({!Decaf_drivers.Driver_core.run}, decaf build)
    in a scheduler thread: the driver's traffic slice
    ({!Decaf_workloads.Rig.slice}, after bringing a NIC up) around the
    campaign's action. A restart re-runs the whole episode. *)

type body =
  | After of (unit -> unit)  (** slice, then the action *)
  | Between of (unit -> unit)
      (** slice, action, slice: the hotplug windows *)
  | Suspended of (unit -> unit)
      (** slice, suspend, action, resume, slice: the PM windows (audio
          plays 10 ms on each side instead of 20) *)

type t = {
  supervisor : Decaf_runtime.Supervisor.t;
      (** the one the registry attached, or a fresh one when the driver
          never bound *)
  kernel_bugs : int;
      (** 1 when an exception escaped the supervisor — a
          {!Decaf_kernel.Panic.bug} or a fault it failed to contain *)
  finished : bool;  (** the episode completed without disabling the driver *)
}

val run :
  seed:int ->
  ?faults:Decaf_kernel.Faultinject.spec list ->
  string ->
  body ->
  t
(** [run ~seed driver body] arms [faults] (default none) with [seed].
    A plan with a [Spurious_irq] spec gets up to three plan-gated
    interrupts on the device's line, at 2, 30 and 60 ms. The plan is
    disarmed on return; its injection counters stay readable. Must not
    be called from inside a scheduler thread. *)
