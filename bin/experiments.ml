(* Regenerate the paper's entire evaluation: Tables 1-4, the section
   5.1 case study and its code-listing figures, the design ablations
   and the two robustness campaigns, in order. With arguments, run only
   the named sections (e.g. `experiments table3 campaign-malicious`).
   The XPC matrix and the soak are `decafctl xpcperf` and `decafctl
   soak`. *)

module E = Decaf_experiments

(* Figures 2, 3 and 5 as the paper prints them; Figure 3 is its first 30
   lines (`driverslicer e1000 --emit-xdr` prints the whole spec). *)
let figures () =
  let xdr =
    String.split_on_char '\n' (E.Casestudy.figure3_xdr ())
    |> List.filteri (fun i _ -> i < 30)
    |> String.concat "\n"
  in
  let before, after = E.Casestudy.figure5_before_after () in
  Printf.sprintf
    "Figure 2: generated Jeannie stub for snd_card_register\n%s\n\
     Figure 3: generated XDR spec for the E1000 (excerpt)\n%s\n\n\
     Figure 5: e1000_config_dsp_after_link_change, before/after\n\
     --- original (return codes) ---\n%s\n--- exception style ---\n%s\n"
    (E.Casestudy.figure2_stub ()) xdr before after

(* Table 3 is the XPC matrix's serial point under both builds. *)
let table3 () =
  let column config =
    E.Xpcperf.measure ~config:(E.Xpcperf.config_name config) ()
  in
  E.Table3.render (column E.Xpcperf.serial @ column E.Xpcperf.native)

let sections =
  [
    ("table1", fun () -> E.Table1.render (E.Table1.measure ()));
    ("table2", fun () -> E.Table2.render (E.Table2.measure ()));
    ("table3", table3);
    ("table4", fun () -> E.Table4.render (E.Table4.measure ()));
    ("casestudy", fun () -> E.Casestudy.render (E.Casestudy.measure ()));
    ("figures", figures);
    ("ablations", fun () -> E.Ablations.render (E.Ablations.measure ()));
    ("campaign", fun () -> E.Faultcampaign.render (E.Faultcampaign.run ()));
    ( "campaign-malicious",
      fun () -> E.Maliciouscampaign.render (E.Maliciouscampaign.run ()) );
  ]

let () =
  let requested =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> List.map fst sections
    | names ->
        List.iter
          (fun n ->
            if not (List.mem_assoc n sections) then begin
              Printf.eprintf "unknown section %S; known: %s\n" n
                (String.concat ", " (List.map fst sections));
              exit 2
            end)
          names;
        names
  in
  print_endline "Decaf Drivers: evaluation";
  print_endline "=========================";
  List.iter
    (fun name ->
      print_newline ();
      print_string ((List.assoc name sections) ()))
    requested
