(* Seeded known-bug mutants, reintroduced behind flags so the
   systematic-exploration harness can prove it is not vacuous: with a
   mutant enabled, decaf-check must find the planted bug and emit a
   replayable counterexample; with every flag off (the default, and the
   only state production code ever runs in) the mutated paths are
   byte-for-byte the fixed ones.

   The flags live in the kernel library because the mutated sites span
   layers: [drop_unbind_drain] gates Driver_core.rmmod's
   drain-before-unbind. *)

(* rmmod tears the driver down without draining the deferred-notify
   queue first, so a batched notification outlives its driver and is
   delivered through the binding's closed env. *)
let drop_unbind_drain = ref false

let reset () = drop_unbind_drain := false
