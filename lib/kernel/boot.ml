(* Power-on resets of the modules outside this library. Each registers
   while it initialises, and OCaml initialises modules in link order, so
   a hook always runs after the hooks of the modules it uses. *)
let hooks : (unit -> unit) list ref = ref []
let on_reset f = hooks := !hooks @ [ f ]

let boot () =
  Clock.reset ();
  Sched.reset ();
  Irq.reset ();
  Io.reset ();
  Pci.reset ();
  Kmem.reset ();
  Dma.reset ();
  Netcore.reset ();
  Sndcore.reset ();
  Usbcore.reset ();
  Inputcore.reset ();
  Modules.reset ();
  Hotplug.reset ();
  Faultinject.reset ();
  Sync.Combolock.reset_totals ();
  Klog.clear ();
  List.iter (fun f -> f ()) !hooks

let check_quiescent () =
  let problems = ref [] in
  let add fmt = Format.kasprintf (fun s -> problems := s :: !problems) fmt in
  if Sched.runnable_count () > 0 then
    add "%d threads still runnable" (Sched.runnable_count ());
  (match Kmem.outstanding () with
  | 0, _ -> ()
  | n, b ->
      let tags =
        Kmem.leaks () |> List.map fst |> String.concat ", "
      in
      add "%d allocations (%d bytes) leaked: %s" n b tags);
  (match Modules.loaded () with
  | [] -> ()
  | ms -> add "modules still loaded: %s" (String.concat ", " ms));
  match !problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.rev ps))
