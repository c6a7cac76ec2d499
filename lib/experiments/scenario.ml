module K = Decaf_kernel
open Decaf_drivers

(* every experiment loads drivers through the unified driver model *)
let boot () =
  K.Boot.boot ();
  Driver_set.register_defaults ()

let in_thread f =
  let result = ref None in
  ignore (K.Sched.spawn ~name:"workload" (fun () -> result := Some (f ())));
  K.Sched.run ();
  match !result with
  | Some v -> v
  | None -> K.Panic.bug "scenario: workload thread did not complete"
