(* The DriverSlicer command-line tool: run the partitioning and
   code-generation pipeline over one of the bundled legacy drivers. *)

open Cmdliner
module Slicer = Decaf_slicer.Slicer
module Partition = Decaf_slicer.Partition
module Report = Decaf_slicer.Report
module Xdrspec = Decaf_slicer.Xdrspec
module Errcheck = Decaf_slicer.Errcheck
module Lint = Decaf_slicer.Lint
open Decaf_drivers

type driver = {
  dtype : string;
  source : string;
  config : Slicer.config;
  waivers : Lint.waiver list;
  errfns : string list;  (** kernel error functions seeding Errcheck *)
}

let drivers =
  [
    ( "8139too",
      {
        dtype = "Network";
        source = Rtl8139_src.source;
        config = Rtl8139_src.config;
        waivers = Rtl8139_src.lint_waivers;
        errfns = [];
      } );
    ( "e1000",
      {
        dtype = "Network";
        source = E1000_src.source;
        config = E1000_src.config;
        waivers = E1000_src.lint_waivers;
        errfns = E1000_src.error_extra;
      } );
    ( "ens1371",
      {
        dtype = "Sound";
        source = Ens1371_src.source;
        config = Ens1371_src.config;
        waivers = Ens1371_src.lint_waivers;
        errfns = [];
      } );
    ( "uhci-hcd",
      {
        dtype = "USB 1.0";
        source = Uhci_src.source;
        config = Uhci_src.config;
        waivers = Uhci_src.lint_waivers;
        errfns = [];
      } );
    ( "psmouse",
      {
        dtype = "Mouse";
        source = Psmouse_src.source;
        config = Psmouse_src.config;
        waivers = Psmouse_src.lint_waivers;
        errfns = [];
      } );
  ]

type emit =
  | Table
  | Partition_sets
  | Xdr
  | Stubs
  | Marshaling
  | Nucleus
  | Library
  | Violations

let run (_, { dtype; source; config; errfns; _ }) emits =
  let out = Slicer.slice ~source config in
  let emits = if emits = [] then [ Table ] else emits in
  List.iter
    (function
      | Table ->
          print_endline Report.header;
          Format.printf "%a@." Report.pp_row (Report.stats out ~dtype)
      | Partition_sets ->
          let p = out.Slicer.partition in
          Printf.printf "nucleus (%d):\n  %s\n"
            (List.length p.Partition.nucleus)
            (String.concat "\n  " p.Partition.nucleus);
          Printf.printf "user (%d):\n  %s\n"
            (List.length p.Partition.user)
            (String.concat "\n  " p.Partition.user);
          Printf.printf "user entry points: %s\n"
            (String.concat ", " p.Partition.user_entry_points);
          Printf.printf "kernel entry points: %s\n"
            (String.concat ", " p.Partition.kernel_entry_points)
      | Xdr -> print_string (Xdrspec.to_string out.Slicer.spec)
      | Marshaling ->
          let spec = out.Slicer.spec in
          List.iter
            (fun s ->
              print_string (Decaf_slicer.Marshalgen.c_marshal_code spec s);
              print_newline ();
              print_string (Decaf_slicer.Marshalgen.java_class_code s);
              print_string (Decaf_slicer.Marshalgen.java_marshal_code spec s);
              print_newline ())
            spec.Xdrspec.xs_structs
      | Stubs ->
          List.iter
            (fun (name, code) -> Printf.printf "/* %s */\n%s\n" name code)
            out.Slicer.stubs
      | Nucleus -> print_string out.Slicer.split.Decaf_slicer.Splitgen.nucleus_src
      | Library -> print_string out.Slicer.split.Decaf_slicer.Splitgen.library_src
      | Violations ->
          let vs = Errcheck.find_violations out.Slicer.file ~extra:errfns in
          Printf.printf "%d broken error-handling sites\n" (List.length vs);
          List.iter
            (fun (v : Errcheck.violation) ->
              Printf.printf "  line %4d %s -> %s\n" v.Errcheck.v_line
                v.Errcheck.v_function v.Errcheck.v_callee)
            vs)
    emits;
  exit 0

(* An unknown driver name is a usage error (exit 124, naming the valid
   ones), never confused with exit 1, "violations found". *)
let driver_conv = Arg.enum (List.map (fun (n, d) -> (n, (n, d))) drivers)

let driver_arg =
  let doc = "Driver to slice (8139too, e1000, ens1371, uhci-hcd, psmouse)." in
  Arg.(required & pos 0 (some driver_conv) None & info [] ~docv:"DRIVER" ~doc)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let term =
  let combine driver table partition xdr stubs marshaling nucleus library
      violations =
    let pick cond v = if cond then [ v ] else [] in
    let emits =
      List.concat
        [
          pick table Table;
          pick partition Partition_sets;
          pick xdr Xdr;
          pick stubs Stubs;
          pick marshaling Marshaling;
          pick nucleus Nucleus;
          pick library Library;
          pick violations Violations;
        ]
    in
    run driver emits
  in
  Term.(
    const combine $ driver_arg
    $ flag "table" "Print the Table 2 statistics row."
    $ flag "partition" "Print the nucleus/user function sets and entry points."
    $ flag "emit-xdr" "Print the generated XDR interface specification."
    $ flag "emit-stubs" "Print the generated kernel and Jeannie stubs."
    $ flag "emit-marshaling"
        "Print the rpcgen/jrpcgen-style marshaling code and Java classes."
    $ flag "emit-nucleus" "Print the patched driver-nucleus source."
    $ flag "emit-library" "Print the patched driver-library source."
    $ flag "violations" "Run the error-handling analysis.")

(* ---- decaf-lint subcommand ---- *)

let lint_driver ~json name { source; config; waivers; errfns; _ } =
  let out = Slicer.slice ~source config in
  let findings =
    Lint.analyze ~extra_errfns:errfns ~file:out.Slicer.file
      ~partition:out.Slicer.partition ~annots:out.Slicer.annots
      ~spec:out.Slicer.spec ~const_env:config.Slicer.const_env
      ~decaf_funcs:(Slicer.decaf_functions out)
      ~library_funcs:(Slicer.library_functions out)
      ()
  in
  let report = Lint.apply_waivers ~driver:name ~waivers findings in
  if json then print_endline (Lint.to_json report)
  else print_string (Lint.to_text report);
  report.Lint.r_unwaived = [] && report.Lint.r_unused_waivers = []

let run_lint driver json =
  let selected = match driver with None -> drivers | Some d -> [ d ] in
  let clean =
    List.fold_left
      (fun acc (name, d) -> lint_driver ~json name d && acc)
      true selected
  in
  exit (if clean then 0 else 1)

let lint_cmd =
  let driver_arg =
    let doc =
      "Driver to lint (8139too, e1000, ens1371, uhci-hcd, psmouse); all \
       bundled drivers when omitted."
    in
    Arg.(value & pos 0 (some driver_conv) None & info [] ~docv:"DRIVER" ~doc)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit a machine-readable report.")
  in
  Cmd.v
    (Cmd.info "decaf-lint"
       ~doc:
         "Run the interprocedural lock/XPC, annotation, marshal-boundary \
          and error-flow checks; exit non-zero on any unwaived violation \
          or unused waiver.")
    Term.(const run_lint $ driver_arg $ json_arg)

let cmd =
  Cmd.v
    (Cmd.info "driverslicer"
       ~doc:
         "Partition a legacy driver into nucleus and user components. The \
          decaf-lint subcommand runs the static discipline checks.")
    term

(* Manual dispatch: [Cmd.group] would reject the historical
   [driverslicer DRIVER --flags] form once a subcommand exists, so peel
   off "decaf-lint" ourselves and fall through to the classic command
   otherwise. *)
let () =
  match Array.to_list Sys.argv with
  | exe :: "decaf-lint" :: rest ->
      exit (Cmd.eval ~argv:(Array.of_list (exe :: rest)) lint_cmd)
  | _ -> exit (Cmd.eval cmd)
