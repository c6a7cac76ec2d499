(* Error handling in the decaf E1000 (the paper's section 5.1 and
   Figure 4):

   1. the static analysis finds the 28 broken error paths in the legacy
      return-code driver;
   2. the running decaf driver uses checked exceptions with nested
      cleanup — we inject allocation failures at each stage of
      e1000_open and verify nothing leaks and the driver recovers.

   Run with:  dune exec examples/error_handling_demo.exe *)

module K = Decaf_kernel
module Hw = Decaf_hw
open Decaf_drivers

let () =
  (* part 1: static analysis over the legacy C *)
  let cs = Decaf_experiments.Casestudy.measure () in
  Printf.printf "legacy driver: %d broken error-handling sites found\n"
    (List.length cs.Decaf_experiments.Casestudy.violations);
  Printf.printf
    "exception rewrite deletes %d of %d hardware-layer lines (%.1f%%)\n\n"
    cs.Decaf_experiments.Casestudy.lines_removed
    cs.Decaf_experiments.Casestudy.hw_layer_loc
    cs.Decaf_experiments.Casestudy.savings_percent;

  (* part 2: fault injection against the running decaf driver *)
  List.iter
    (fun (nth, stage) ->
      Decaf_experiments.Scenario.boot ();
      let link = Hw.Link.create ~rate_bps:1_000_000_000 () in
      ignore
        (E1000_drv.setup_device ~slot:"00:05.0" ~mmio_base:0xf000_0000 ~irq:11
           ~mac:"\x00\x1b\x21\x0a\x0b\x0c" ~link ());
      ignore
        (K.Sched.spawn ~name:"inject" (fun () ->
             (match Driver_core.insmod "e1000" ~mode:Driver_env.Decaf with
             | Ok () -> ()
             | Error rc -> failwith (Printf.sprintf "insmod: %d" rc));
             let nd = E1000_drv.netdev (Option.get (E1000_drv.active ())) in
             K.Kmem.inject_failure ~after:nth;
             (match K.Netcore.open_dev nd with
             | Error rc ->
                 Printf.printf "open failed at %-22s -> errno %d" stage rc
             | Ok () -> print_string "open unexpectedly succeeded");
             K.Kmem.clear_injection ();
             let live, bytes = K.Kmem.outstanding () in
             Printf.printf "; leaked allocations: %d (%d bytes)" live bytes;
             (match K.Netcore.open_dev nd with
             | Ok () -> print_endline "; recovery open: OK"
             | Error rc -> Printf.printf "; recovery open FAILED (%d)\n" rc);
             Driver_core.rmmod "e1000"));
      K.Sched.run ())
    [ (1, "tx ring allocation"); (2, "rx ring allocation") ];
  print_endline
    "\n(each failure unwound exactly the resources acquired before it —\n\
    \ the nested handlers of the paper's Figure 4)"
