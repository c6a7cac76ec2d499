(* The malicious-driver campaign as a tier-1 gate: a fixed seed must
   drive all five drivers through at least 25 attack trials — fuzzed
   values, read-only writes, forged/stale/cross-type handles, replayed
   acks, oversized payloads, forged ring slots, queue floods, hostile
   PM/hotplug windows — with every attack rejected or absorbed as
   declared, zero kernel panics and zero corrupted kernel objects; and
   the trials must cover every rule of the crossing structs' codec
   tables and of their rings' slot tables. *)

module MC = Decaf_experiments.Maliciouscampaign
module Codec = Decaf_xpc.Codec
module Guard = Decaf_xpc.Guard
module EO = Decaf_drivers.E1000_objects
module RO = Decaf_drivers.Rtl8139_objects

let report = lazy (MC.run ~seed:0xfeed ())

let campaign_passes () =
  let r = Lazy.force report in
  match MC.check r with
  | Ok () -> ()
  | Error m -> Alcotest.failf "campaign failed:\n%s\n%s" m (MC.render r)

let no_kernel_bugs () =
  let r = Lazy.force report in
  Alcotest.(check int) "no attack reaches Panic.bug" 0 r.MC.total_kernel_bugs

let no_corruption () =
  let r = Lazy.force report in
  Alcotest.(check int) "no rejected image mutates a kernel object" 0
    r.MC.total_corrupted

let volume_and_coverage () =
  let r = Lazy.force report in
  if List.length r.MC.trials < 25 then
    Alcotest.failf "only %d trials" (List.length r.MC.trials);
  let drivers =
    List.sort_uniq compare (List.map (fun t -> t.MC.driver) r.MC.trials)
  in
  Alcotest.(check (list string))
    "all five drivers attacked"
    [ "8139too"; "e1000"; "ens1371"; "psmouse"; "uhci-hcd" ]
    drivers

let all_attack_classes_land () =
  let r = Lazy.force report in
  if r.MC.total_rejections = 0 then Alcotest.fail "no rejection happened";
  if r.MC.total_dropped = 0 then Alcotest.fail "no overflow was absorbed";
  if r.MC.total_restarts = 0 then Alcotest.fail "no supervised restart";
  if not (List.exists (fun t -> t.MC.outcome = "degraded") r.MC.trials) then
    Alcotest.fail "persistent abuse never exhausted a restart budget"

let deterministic () =
  let a = Lazy.force report and b = MC.run ~seed:0xfeed () in
  Alcotest.(check int) "rejections" a.MC.total_rejections b.MC.total_rejections;
  Alcotest.(check int) "dropped" a.MC.total_dropped b.MC.total_dropped;
  Alcotest.(check int) "restarts" a.MC.total_restarts b.MC.total_restarts;
  Alcotest.(check (list string))
    "outcomes"
    (List.map (fun t -> t.MC.outcome) a.MC.trials)
    (List.map (fun t -> t.MC.outcome) b.MC.trials)

(* --- coverage of the tables --- *)

let attacked ?attack ~driver name =
  List.exists
    (fun t ->
      t.MC.driver = driver
      && Option.fold ~none:true ~some:(String.equal t.MC.attack) attack
      && List.mem name t.MC.targets)
    (Lazy.force report).MC.trials

let struct_tables_covered () =
  List.iter
    (fun (driver, codec) ->
      List.iter
        (fun (d : Codec.desc) ->
          let read = d.Codec.access = Decaf_xpc.Marshal_plan.Read in
          if read || d.Codec.rule <> Guard.Any then
            Alcotest.(check bool)
              (Printf.sprintf "%s.%s is attacked" driver d.Codec.name)
              true
              (attacked ~driver d.Codec.name))
        (Codec.descs codec))
    [ ("e1000", EO.codec); ("8139too", RO.codec) ]

let ring_tables_covered () =
  List.iter
    (fun (driver, table) ->
      List.iter
        (fun (d : Codec.desc) ->
          if d.Codec.rule <> Guard.Any then
            Alcotest.(check bool)
              (Printf.sprintf "%s ring %s forged" driver d.Codec.name)
              true
              (attacked ~attack:"forged ring slots" ~driver d.Codec.name))
        (Codec.descs table))
    [ ("e1000", EO.ring_table); ("8139too", RO.ring_table) ]

let rejections_as_declared () =
  List.iter
    (fun t ->
      Alcotest.(check int)
        (Printf.sprintf "%s / %s rejections" t.MC.driver t.MC.attack)
        t.MC.expected_rejections t.MC.rejections)
    (Lazy.force report).MC.trials

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "maliciouscampaign"
    [
      ( "campaign",
        [
          tc "passes acceptance" campaign_passes;
          tc "no kernel bugs" no_kernel_bugs;
          tc "no corrupted kernel objects" no_corruption;
          tc ">=25 trials across all five drivers" volume_and_coverage;
          tc "rejection, drop and restart paths all land" all_attack_classes_land;
          tc "deterministic under fixed seed" deterministic;
        ] );
      ( "coverage",
        [
          tc "every struct rule attacked" struct_tables_covered;
          tc "every ring rule forged in a slot" ring_tables_covered;
          tc "rejections as declared" rejections_as_declared;
        ] );
    ]
