(** Malicious-driver campaign: the adversarial counterpart of
    {!Faultcampaign}.  Instead of a failing device, each trial models a
    compromised user-level driver attacking the XPC boundary — hostile
    field values, writes through read-only fields, oversized images,
    forged / stale / cross-type capability handles, forged delta
    acknowledgements, scribbled ring slots, ring and deferred-call
    floods, and attacks timed into suspend/resume and hotplug windows —
    with the recovery supervisor in the loop.

    The trials are generated from one short description per driver: one
    per {!Decaf_xpc.Codec.violations} entry of each crossing struct's
    table, one "forged ring slots" trial per ring carrying a record per
    violation of its slot table plus a forged handle, and every handle
    and flood class for every driver.  Each trial declares its outcome
    and its rejection count.

    The acceptance claim is the boundary-hardening contract: every
    attack is rejected at the boundary as declared and either absorbed
    (drop + count) or converted into an ordinary recoverable driver
    fault; the kernel never panics and no kernel object changes under an
    attack. *)

type trial = {
  driver : string;
  attack : string;
  targets : string list;
      (** the table fields the trial's forged values sit in: the struct
          field of a violation trial, one per record of a forged-slot
          trial, none otherwise *)
  expected : string;
  expected_rejections : int;
      (** one per field, handle, ack or oversized attack, one per forged
          slot, none for a flood; a persistent attack fires once per
          restart plus once more *)
  outcome : string;
      (** ["clean"] (baseline), ["recovered"] (boundary fault detected,
          supervisor restarted the driver), ["degraded"] (persistent
          abuse exhausted the restart budget), ["dropped"] (rejected or
          overflowing work absorbed without a fault), or
          ["KERNEL-BUG"]. *)
  rejections : int;  (** boundary violations detected during the trial *)
  dropped : int;  (** inbound work discarded without a fault *)
  restarts : int;
  corrupted : int;
      (** kernel objects whose fields or dirty marks an attack changed
          — the validate-then-apply discipline keeps this zero *)
  kernel_bugs : int;
}

type report = {
  seed : int;
  trials : trial list;
  total_rejections : int;
  total_dropped : int;
  total_restarts : int;
  total_corrupted : int;
  total_kernel_bugs : int;
}

val run : ?seed:int -> unit -> report
(** Boot-per-trial, deterministic: trial [i] fuzzes with
    [Random.State.make [| seed + i |]].  Must not be called from inside
    a scheduler thread. *)

val check : report -> (unit, string) result
(** The gate [make campaign-malicious] and the test suite enforce:
    zero kernel bugs, zero corrupted kernel objects, at least 25 trials
    covering all five drivers, every attack class exercised (rejections,
    drops and restarts all nonzero), and every trial's outcome and
    rejection count equal to its declaration. *)

val render : report -> string
