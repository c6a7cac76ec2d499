(* Tests for DriverSlicer: partitioning, XDR spec generation, marshal
   plans, stub generation, source splitting, and regeneration. *)

open Decaf_slicer
module Ast = Decaf_minic.Ast
module Plan = Decaf_xpc.Marshal_plan

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_slist = Alcotest.(check (list string))

(* A toy NIC driver with the structure the slicer cares about: an
   interrupt handler and transmit path that must stay in the kernel, and
   init/shutdown code that can move up. *)
let toy_driver =
  {|
#include <linux/pci.h>

#define PCI_LEN 64

struct toy_ring {
  int head;          /* consumer index */
  int tail;
  long long dma_base;
};

struct toy_adapter {
  struct toy_ring tx_ring;   /* first member: shares the adapter address */
  struct toy_ring rx_ring;
  uint32_t * __attribute__((exp(PCI_LEN))) config_space;
  int msg_enable;
  int irq;
  char name[8];
};

void kernel_log(int level);
int pci_enable(struct toy_adapter *a);
int request_irq_shim(int irq);

static int read_phy(struct toy_adapter *a, int reg) {
  return a->msg_enable + reg;
}

/* data path: must stay in the kernel */
static int toy_xmit(struct toy_adapter *a) {
  a->tx_ring.tail = a->tx_ring.tail + 1;
  return 0;
}

/* interrupt handler: must stay in the kernel */
static void toy_intr(struct toy_adapter *a) {
  a->rx_ring.head = a->rx_ring.head + 1;
  toy_xmit(a);
}

static int toy_reset(struct toy_adapter *a) {
  int v = read_phy(a, 1);
  if (v < 0)
    goto err;
  a->msg_enable = 1;
  return 0;
err:
  kernel_log(3);
  return -5;
}

static int toy_open(struct toy_adapter *a) {
  int err;
  DECAF_RWVAR(a->msg_enable);
  err = toy_reset(a);
  if (err)
    return err;
  err = request_irq_shim(a->irq);
  return err;
}

static void toy_close(struct toy_adapter *a) {
  a->msg_enable = 0;
  kernel_log(1);
}

static int toy_probe(struct toy_adapter *a) {
  int err = pci_enable(a);
  if (err)
    return err;
  return toy_open(a);
}
|}

let toy_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "toy";
        critical_roots = [ "toy_intr"; "toy_xmit" ];
        interface_functions =
          [ "toy_open"; "toy_close"; "toy_probe"; "toy_xmit"; "toy_intr" ];
      };
    const_env = [ ("PCI_LEN", 64) ];
    java_functions = Slicer.All_user;
  }

let slice () = Slicer.slice ~source:toy_driver toy_config

(* --- loc_count --- *)

let test_loc_count_c () =
  let src = "int a; /* comment\n spanning lines */\n// line\n\nint b;\n" in
  check "c loc" 2 (Loc_count.count Loc_count.C src)

let test_loc_count_ocaml () =
  let src = "let a = 1\n(* a (* nested *) comment *)\nlet b = 2\n" in
  check "ocaml loc" 2 (Loc_count.count Loc_count.Ocaml src)

let test_loc_count_string_immunity () =
  let src = "char *s = \"/* not a comment */\";\n" in
  check "string contents kept" 1 (Loc_count.count Loc_count.C src)

(* --- partition --- *)

let test_partition_basic () =
  let out = slice () in
  let p = out.Slicer.partition in
  check_slist "nucleus = closure of critical roots" [ "toy_intr"; "toy_xmit" ]
    p.Partition.nucleus;
  check_slist "user functions"
    [ "read_phy"; "toy_close"; "toy_open"; "toy_probe"; "toy_reset" ]
    p.Partition.user;
  check_slist "user entry points" [ "toy_close"; "toy_open"; "toy_probe" ]
    p.Partition.user_entry_points;
  (* kernel entry points: kernel imports used from user code *)
  check_slist "kernel entry points"
    [ "kernel_log"; "pci_enable"; "request_irq_shim" ]
    p.Partition.kernel_entry_points

let test_partition_transitive () =
  (* making toy_open critical drags toy_reset and read_phy along *)
  let config =
    {
      toy_config with
      Slicer.partition =
        {
          toy_config.Slicer.partition with
          Partition.critical_roots = [ "toy_intr"; "toy_xmit"; "toy_open" ];
        };
    }
  in
  let out = Slicer.slice ~source:toy_driver config in
  check_slist "nucleus grows transitively"
    [ "read_phy"; "toy_intr"; "toy_open"; "toy_reset"; "toy_xmit" ]
    out.Slicer.partition.Partition.nucleus

let test_partition_unknown_root_rejected () =
  let config =
    {
      toy_config with
      Slicer.partition =
        { toy_config.Slicer.partition with Partition.critical_roots = [ "nope" ] };
    }
  in
  check_bool "unknown root rejected" true
    (try
       ignore (Slicer.slice ~source:toy_driver config);
       false
     with Invalid_argument _ -> true)

let prop_partition_soundness =
  let all_funcs =
    [ "read_phy"; "toy_xmit"; "toy_intr"; "toy_reset"; "toy_open"; "toy_close"; "toy_probe" ]
  in
  QCheck.Test.make ~name:"partition soundness for random root sets" ~count:100
    QCheck.(list_of_size Gen.(int_range 0 4) (oneofl all_funcs))
    (fun roots ->
      let roots = List.sort_uniq compare roots in
      let config =
        {
          Partition.driver_name = "toy";
          critical_roots = roots;
          interface_functions = [];
        }
      in
      let file = Decaf_minic.Parser.parse toy_driver in
      let result = Partition.run file config in
      Partition.check_soundness file result = Ok ()
      && List.length result.Partition.nucleus
         + List.length result.Partition.user
         = List.length all_funcs)

(* --- annotations --- *)

let test_annotations_collected () =
  let out = slice () in
  let a = out.Slicer.annots in
  check "field annots" 1 (List.length a.Annot.fields);
  check "var annots" 1 (List.length a.Annot.vars);
  check "annotation lines" 2 (Annot.count_lines a);
  let va = List.hd a.Annot.vars in
  Alcotest.(check string) "annot function" "toy_open" va.Annot.va_function;
  Alcotest.(check string) "annot field" "msg_enable" va.Annot.va_field;
  check_bool "rw access" true (va.Annot.va_access = Plan.Read_write)

(* --- xdr spec --- *)

let test_xdrspec_figure3_rewrite () =
  let out = slice () in
  let spec = out.Slicer.spec in
  (match Xdrspec.find_struct spec "array64_uint32_t" with
  | Some s ->
      check_bool "synthetic" true s.Xdrspec.xs_synthetic;
      (match s.Xdrspec.xs_fields with
      | [ { Xdrspec.xf_name = "array"; xf_type = Xdrspec.Xarray (Xdrspec.Xuint, 64) } ]
        ->
          ()
      | _ -> Alcotest.fail "wrapper field wrong")
  | None -> Alcotest.fail "wrapper struct not synthesized");
  (match Xdrspec.find_struct spec "toy_adapter" with
  | Some s ->
      let cs =
        List.find (fun f -> f.Xdrspec.xf_name = "config_space") s.Xdrspec.xs_fields
      in
      (match cs.Xdrspec.xf_type with
      | Xdrspec.Xoptional (Xdrspec.Xstruct_ref "array64_uint32_t") -> ()
      | _ -> Alcotest.fail "config_space not rewritten to wrapper pointer")
  | None -> Alcotest.fail "toy_adapter missing");
  check_bool "typedef emitted" true
    (List.mem_assoc "array64_uint32_t_ptr" spec.Xdrspec.xs_typedefs)

let test_xdrspec_hyper_and_opaque () =
  let out = slice () in
  match Xdrspec.find_struct out.Slicer.spec "toy_ring" with
  | Some s ->
      let dma = List.find (fun f -> f.Xdrspec.xf_name = "dma_base") s.Xdrspec.xs_fields in
      check_bool "long long -> hyper" true (dma.Xdrspec.xf_type = Xdrspec.Xhyper);
      (match Xdrspec.find_struct out.Slicer.spec "toy_adapter" with
      | Some a ->
          let name = List.find (fun f -> f.Xdrspec.xf_name = "name") a.Xdrspec.xs_fields in
          check_bool "char[8] -> opaque 8" true
            (name.Xdrspec.xf_type = Xdrspec.Xopaque 8)
      | None -> Alcotest.fail "adapter missing")
  | None -> Alcotest.fail "toy_ring missing"

let test_xdrspec_wire_size () =
  let out = slice () in
  let spec = out.Slicer.spec in
  (* toy_ring: int + int + hyper = 16 *)
  check "ring size" 16 (Xdrspec.wire_size spec "toy_ring");
  (* adapter: 2 rings (32) + optional wrapper (4 + 64*4) + int + int +
     opaque 8 = 32 + 260 + 4 + 4 + 8 = 308 *)
  check "adapter size" 308 (Xdrspec.wire_size spec "toy_adapter")

let test_xdrspec_text () =
  let out = slice () in
  let text = Xdrspec.to_string out.Slicer.spec in
  check_bool "mentions wrapper" true
    (Testutil.contains text "struct array64_uint32_t");
  check_bool "typedef line" true
    (Testutil.contains text "typedef struct array64_uint32_t *array64_uint32_t_ptr;")

(* --- marshal plans --- *)

let test_plans_directions () =
  let out = slice () in
  let adapter =
    List.find (fun p -> Plan.type_id p = "toy_adapter") out.Slicer.plans
  in
  (* user code reads and writes msg_enable (toy_reset/toy_open/toy_close) *)
  check_bool "msg_enable copied both ways" true
    (Plan.copies_in adapter "msg_enable" && Plan.copies_out adapter "msg_enable");
  (* irq is only read at user level (toy_open passes a->irq) *)
  check_bool "irq copied in" true (Plan.copies_in adapter "irq");
  check_bool "irq not copied out" false (Plan.copies_out adapter "irq");
  (* tx_ring.tail is only touched in the nucleus: no plan entry *)
  check_bool "nucleus-only fields not in plan" false
    (Plan.copies_in adapter "tx_ring" || Plan.copies_out adapter "tx_ring")

let test_plans_annotation_forces_field () =
  (* without the DECAF_RWVAR annotation, a field accessed only from Java
     would be missing; the annotation forces it in. Here msg_enable is
     also seen by the analysis, so check the annotation alone works by
     using a source where user C code never touches the field. *)
  let source =
    {|
struct thing { int visible; int java_only; };
void import_fn(int x);
static void crit(struct thing *t) { t->visible = 1; }
static void user_fn(struct thing *t) {
  DECAF_WVAR(t->java_only);
  import_fn(t->visible);
}
|}
  in
  let config =
    {
      Slicer.partition =
        {
          Partition.driver_name = "t";
          critical_roots = [ "crit" ];
          interface_functions = [ "user_fn" ];
        };
      const_env = [];
      java_functions = Slicer.All_user;
    }
  in
  let out = Slicer.slice ~source config in
  let plan = List.find (fun p -> Plan.type_id p = "thing") out.Slicer.plans in
  check_bool "annotated field copied out" true (Plan.copies_out plan "java_only");
  check_bool "annotated field not copied in" false (Plan.copies_in plan "java_only")

(* A store into an element of an array field writes the field: the plan
   copies it back out, an annotation declaring the write is witnessed,
   and the post-conversion diff reports the direction that would be
   lost. *)
let element_store_driver =
  {|
struct st { int buf[4]; int cnt[4]; int idx[2]; };
void import_fn(int x);
static void crit(struct st *a) { a->idx[1] = 0; }
static void fill(struct st *a, int i, int v) {
  a->buf[i] = v;
  a->cnt[i] += 1;
  a->idx[0]++;
  import_fn(i);
}
|}

let element_store_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "st";
        critical_roots = [ "crit" ];
        interface_functions = [ "crit"; "fill" ];
      };
    const_env = [];
    java_functions = Slicer.All_user;
  }

let test_plans_element_store_is_write () =
  let out = Slicer.slice ~source:element_store_driver element_store_config in
  let plan = List.find (fun p -> Plan.type_id p = "st") out.Slicer.plans in
  let access f =
    match Plan.access plan f with
    | Some Plan.Read -> "read"
    | Some Plan.Write -> "write"
    | Some Plan.Read_write -> "read_write"
    | None -> "none"
  in
  Alcotest.(check (list string))
    "buf, cnt, idx" [ "write"; "read_write"; "read_write" ]
    (List.map access [ "buf"; "cnt"; "idx" ]);
  let annot_messages (out : Slicer.output) ~anchor =
    List.filter_map
      (fun (f : Lint.finding) ->
        if f.Lint.f_pass = Lint.Annotation_soundness && f.Lint.f_anchor = anchor
        then Some f.Lint.f_message
        else None)
      out.Slicer.lint
  in
  (* fill is Java after conversion: nothing but annotations is left to
     see its store into buf *)
  check_bool "missing annotation names buf(out)" true
    (List.exists
       (fun m -> Testutil.contains m "buf(out)")
       (annot_messages out ~anchor:"st"));
  let annotated =
    Testutil.replace element_store_driver ~needle:"  a->buf[i] = v;"
      ~replacement:"  DECAF_WVAR(a->buf);\n  a->buf[i] = v;"
  in
  Alcotest.(check (list string))
    "WVAR on an element store is sound" []
    (annot_messages
       (Slicer.slice ~source:annotated element_store_config)
       ~anchor:"fill")

(* --- stubs --- *)

let test_stub_generation () =
  let out = slice () in
  let names = List.map fst out.Slicer.stubs in
  check_bool "kernel stub for toy_open" true (List.mem "kernel:toy_open" names);
  (* kernel entry points are the imports user code calls; each gets a
     Jeannie stub so pure Java can invoke it (Figure 2) *)
  check_bool "jeannie stub for pci_enable" true
    (List.mem "jeannie:pci_enable" names);
  check_bool "jeannie stub for kernel_log" true
    (List.mem "jeannie:kernel_log" names);
  let jeannie = List.assoc "jeannie:pci_enable" out.Slicer.stubs in
  check_bool "backtick call" true (Testutil.contains jeannie "`pci_enable(");
  check_bool "object tracker translate" true
    (Testutil.contains jeannie "JavaOT.xlate_j_to_c");
  check_bool "marshal in" true (Testutil.contains jeannie "copy_XDR_j2c");
  check_bool "marshal out" true (Testutil.contains jeannie "copy_XDR_c2j");
  let kernel = List.assoc "kernel:toy_open" out.Slicer.stubs in
  check_bool "xpc upcall" true (Testutil.contains kernel "xpc_call_user")

(* --- splitting --- *)

let test_split_partitions_functions () =
  let out = slice () in
  let s = out.Slicer.split in
  (* Nucleus keeps toy_intr/toy_xmit bodies, library keeps the rest. *)
  check_bool "nucleus has xmit body" true
    (Testutil.contains s.Splitgen.nucleus_src "a->tx_ring.tail");
  check_bool "nucleus lost open body" false
    (Testutil.contains s.Splitgen.nucleus_src "request_irq_shim(a->irq)");
  check_bool "library has open body" true
    (Testutil.contains s.Splitgen.library_src "request_irq_shim(a->irq)");
  check_bool "library lost xmit body" false
    (Testutil.contains s.Splitgen.library_src "a->tx_ring.tail");
  check_bool "marker comments present" true
    (Testutil.contains s.Splitgen.nucleus_src
       "toy_open: implemented in the other partition")

let test_split_preserves_comments () =
  let out = slice () in
  let s = out.Slicer.split in
  check_bool "nucleus keeps struct comment" true
    (Testutil.contains s.Splitgen.nucleus_src "/* consumer index */");
  check_bool "library keeps struct comment" true
    (Testutil.contains s.Splitgen.library_src "/* consumer index */");
  check_bool "library keeps data-path comment placement" true
    (Testutil.contains s.Splitgen.library_src
       "/* data path: must stay in the kernel */")

let test_split_output_reparses () =
  let out = slice () in
  let s = out.Slicer.split in
  (* Both sides must remain valid mini-C (pragmas/stub include are fine). *)
  let n = Decaf_minic.Parser.parse s.Splitgen.nucleus_src in
  let l = Decaf_minic.Parser.parse s.Splitgen.library_src in
  check "nucleus functions" 2
    (List.length (Ast.functions n) - 1 (* +__decaf_nucleus_init *));
  check "library functions" 5 (List.length (Ast.functions l))

(* --- regeneration --- *)

let test_regen_detects_new_annotation () =
  let out = slice () in
  (* Driver evolves: the decaf driver starts writing the irq field. *)
  let evolved =
    Testutil.replace toy_driver ~needle:"DECAF_RWVAR(a->msg_enable);"
      ~replacement:"DECAF_RWVAR(a->msg_enable);\n  DECAF_WVAR(a->irq);"
  in
  let merged, changes =
    Regen.regenerate ~old_plans:out.Slicer.plans ~source:evolved toy_config
  in
  (match List.find_opt (fun c -> c.Regen.ch_type = "toy_adapter") changes with
  | Some c ->
      check_bool "irq widened to RW" true
        (List.mem "irq" c.Regen.ch_widened_fields)
  | None -> Alcotest.fail "no change reported for toy_adapter");
  let plan =
    List.find (fun p -> Plan.type_id p = "toy_adapter") merged.Slicer.plans
  in
  check_bool "merged plan copies irq out" true (Plan.copies_out plan "irq")

let test_regen_no_change_is_quiet () =
  let out = slice () in
  let _, changes =
    Regen.regenerate ~old_plans:out.Slicer.plans ~source:toy_driver toy_config
  in
  check "no changes" 0 (List.length changes)

(* --- report --- *)

let test_report_stats () =
  let out = slice () in
  let ds = Report.stats out ~dtype:"Network" in
  check "nucleus funcs" 2 ds.Report.ds_nucleus_funcs;
  check "decaf funcs" 5 ds.Report.ds_decaf_funcs;
  check "library funcs" 0 ds.Report.ds_library_funcs;
  check "annotations" 2 ds.Report.ds_annotations;
  check_bool "most functions moved up" true (Report.user_fraction ds > 0.7);
  check_bool "loc positive" true (ds.Report.ds_loc > 40)

let prop_partition_monotone =
  (* adding critical roots can only grow the nucleus *)
  let all_funcs =
    [ "read_phy"; "toy_xmit"; "toy_intr"; "toy_reset"; "toy_open"; "toy_close"; "toy_probe" ]
  in
  QCheck.Test.make ~name:"adding roots only grows the nucleus" ~count:80
    QCheck.(pair
              (list_of_size Gen.(int_range 0 3) (oneofl all_funcs))
              (oneofl all_funcs))
    (fun (roots, extra) ->
      let roots = List.sort_uniq compare roots in
      let file = Decaf_minic.Parser.parse toy_driver in
      let run roots =
        Partition.run file
          { Partition.driver_name = "toy"; critical_roots = roots; interface_functions = [] }
      in
      let small = run roots in
      let big = run (List.sort_uniq compare (extra :: roots)) in
      List.for_all
        (fun f -> List.mem f big.Partition.nucleus)
        small.Partition.nucleus)

let prop_stub_completeness =
  (* every user entry point gets a kernel stub, and every kernel entry
     point reachable as a prototype or definition gets a Jeannie stub *)
  let all_funcs =
    [ "read_phy"; "toy_xmit"; "toy_intr"; "toy_reset"; "toy_open"; "toy_close"; "toy_probe" ]
  in
  QCheck.Test.make ~name:"stubs cover every entry point" ~count:60
    QCheck.(list_of_size Gen.(int_range 0 4) (oneofl all_funcs))
    (fun roots ->
      let roots = List.sort_uniq compare roots in
      let config =
        {
          toy_config with
          Slicer.partition =
            { toy_config.Slicer.partition with Partition.critical_roots = roots };
        }
      in
      let out = Slicer.slice ~source:toy_driver config in
      let names = List.map fst out.Slicer.stubs in
      List.for_all
        (fun f -> List.mem ("kernel:" ^ f) names)
        out.Slicer.partition.Partition.user_entry_points
      && List.for_all
           (fun f -> List.mem ("jeannie:" ^ f) names)
           out.Slicer.partition.Partition.kernel_entry_points)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_partition_soundness; prop_partition_monotone; prop_stub_completeness ]

(* --- lint --- *)

let lint_errors pass findings =
  List.filter
    (fun (f : Lint.finding) ->
      f.Lint.f_pass = pass && f.Lint.f_severity = Lint.Error)
    findings

let has_finding ?anchor ~msg findings =
  List.exists
    (fun (f : Lint.finding) ->
      (match anchor with Some a -> f.Lint.f_anchor = a | None -> true)
      && Testutil.contains f.Lint.f_message msg)
    findings

(* A driver whose interrupt path sleeps two calls deep and whose open
   routine crosses to the kernel with a spinlock held. *)
let locky_driver =
  {|
struct lk { int n; };

void spin_lock(int lock);
void spin_unlock(int lock);
void msleep(int msec);
int kernel_helper(int x);

static void lk_poll(struct lk *a) {
  msleep(10);
}

static void lk_intr(struct lk *a) {
  a->n = a->n + 1;
  lk_poll(a);
}

static int lk_open(struct lk *a) {
  spin_lock(0);
  kernel_helper(a->n);
  spin_unlock(0);
  return 0;
}
|}

let locky_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "locky";
        critical_roots = [ "lk_intr" ];
        interface_functions = [ "lk_intr"; "lk_open" ];
      };
    const_env = [];
    java_functions = Slicer.All_user;
  }

let test_lint_sleep_in_atomic () =
  let out = Slicer.slice ~source:locky_driver locky_config in
  let errs = lint_errors Lint.Lock_discipline out.Slicer.lint in
  check_bool "sleep while atomic caught" true
    (has_finding ~anchor:"lk_poll" ~msg:"msleep" errs);
  (* the witness chain walks root -> caller -> sleeping site *)
  let witness =
    List.find
      (fun (f : Lint.finding) -> f.Lint.f_anchor = "lk_poll")
      errs
  in
  check_bool "interprocedural witness" true
    (List.length witness.Lint.f_witness >= 3)

let test_lint_xpc_under_spinlock () =
  let out = Slicer.slice ~source:locky_driver locky_config in
  let errs = lint_errors Lint.Lock_discipline out.Slicer.lint in
  check_bool "crossing under spinlock caught" true
    (has_finding ~anchor:"lk_open" ~msg:"XPC crossing" errs);
  (* the interrupt handler itself is disciplined *)
  check_bool "no error on lk_intr" false (has_finding ~anchor:"lk_intr" ~msg:"" errs)

let test_lint_lock_negative () =
  (* moving the kernel call out of the critical section clears the error *)
  let fixed =
    Testutil.replace locky_driver
      ~needle:{|  spin_lock(0);
  kernel_helper(a->n);
  spin_unlock(0);|}
      ~replacement:{|  spin_lock(0);
  a->n = a->n + 1;
  spin_unlock(0);
  kernel_helper(a->n);|}
  in
  let fixed = Testutil.replace fixed ~needle:"  msleep(10);\n" ~replacement:"" in
  let out = Slicer.slice ~source:fixed locky_config in
  check "no lock errors" 0
    (List.length (lint_errors Lint.Lock_discipline out.Slicer.lint))

let test_lint_unbalanced_lock () =
  let src =
    Testutil.replace locky_driver ~needle:"  spin_lock(0);\n" ~replacement:""
  in
  let out = Slicer.slice ~source:src locky_config in
  check_bool "unmatched release flagged" true
    (has_finding ~anchor:"lk_open" ~msg:"unbalanced" (Lint.violations out.Slicer.lint))

let test_lint_annotation_stale_and_narrow () =
  let src =
    Testutil.replace toy_driver ~needle:"DECAF_RWVAR(a->msg_enable);"
      ~replacement:"DECAF_RWVAR(a->gone); DECAF_RVAR(a->msg_enable);"
  in
  let out = Slicer.slice ~source:src toy_config in
  let errs = lint_errors Lint.Annotation_soundness out.Slicer.lint in
  check_bool "stale annotation caught" true
    (has_finding ~anchor:"toy_open" ~msg:"no longer exists" errs);
  (* toy_reset (reachable from toy_open) writes msg_enable, so RVAR is
     too narrow *)
  check_bool "wrong direction caught" true
    (has_finding ~anchor:"toy_open" ~msg:"too narrow" errs)

let test_lint_annotation_missing () =
  (* a->irq is read by user code but carries no annotation: once the
     bodies convert to Java the plan loses the field *)
  let out = slice () in
  check_bool "missing annotation warned at struct" true
    (has_finding ~anchor:"toy_adapter" ~msg:"irq" (Lint.violations out.Slicer.lint))

let test_lint_annotation_negative () =
  (* the toy RWVAR(msg_enable) is witnessed in both directions:
     read_phy reads it, toy_reset writes it, both reachable *)
  let out = slice () in
  check_bool "consistent annotation silent" false
    (has_finding ~anchor:"toy_open" ~msg:"" (Lint.violations out.Slicer.lint))

let marshal_driver =
  {|
struct mb {
  int n;
  int *buf;
};

int kernel_helper(int x);

static void mb_intr(struct mb *a) {
  a->n = a->n + 1;
}

static int mb_open(struct mb *a) {
  a->n = 0;
  return kernel_helper(a->n);
}
|}

let marshal_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "mb";
        critical_roots = [ "mb_intr" ];
        interface_functions = [ "mb_intr"; "mb_open" ];
      };
    const_env = [ ("MB_LEN", 16) ];
    java_functions = Slicer.All_user;
  }

let test_lint_marshal_unannotated_pointer () =
  let out = Slicer.slice ~source:marshal_driver marshal_config in
  check_bool "bare crossing pointer caught" true
    (has_finding ~anchor:"mb" ~msg:"no exp/opt attribute"
       (lint_errors Lint.Marshal_boundary out.Slicer.lint))

let test_lint_marshal_negative_and_unknown_len () =
  let annotated =
    Testutil.replace marshal_driver ~needle:"int *buf;"
      ~replacement:"int * __attribute__((exp(MB_LEN))) buf;"
  in
  let out = Slicer.slice ~source:annotated marshal_config in
  check "annotated pointer clean" 0
    (List.length (lint_errors Lint.Marshal_boundary out.Slicer.lint));
  let unknown =
    Testutil.replace marshal_driver ~needle:"int *buf;"
      ~replacement:"int * __attribute__((exp(NO_SUCH))) buf;"
  in
  let out = Slicer.slice ~source:unknown marshal_config in
  check_bool "unresolvable exp length warned" true
    (has_finding ~anchor:"mb" ~msg:"NO_SUCH" (Lint.violations out.Slicer.lint))

let errflow_driver =
  {|
struct ef { int n; };

static int ef_helper(struct ef *a) {
  if (a->n < 0)
    return -5;
  return 0;
}

static void ef_intr(struct ef *a) {
  a->n = a->n + 1;
}

static int ef_overwrite(struct ef *a) {
  int err;
  err = ef_helper(a);
  err = ef_helper(a);
  if (err)
    return err;
  return 0;
}

static int ef_merge(struct ef *a) {
  int err = ef_helper(a);
  if (a->n) {
    if (err)
      return err;
  }
  return 0;
}

static int ef_good(struct ef *a) {
  int err = ef_helper(a);
  if (err)
    return err;
  return 0;
}

static int ef_retry_do(struct ef *a) {
  int err;
  do {
    err = ef_helper(a);
  } while (err);
  return 0;
}

static int ef_retry_while(struct ef *a) {
  int err = 1;
  while (err) {
    err = ef_helper(a);
  }
  return 0;
}

static int ef_loop_unread(struct ef *a) {
  int err;
  int i;
  for (i = 0; i < 3; i++) {
    err = ef_helper(a);
  }
  return 0;
}
|}

let errflow_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "ef";
        critical_roots = [ "ef_intr" ];
        interface_functions =
          [
            "ef_intr";
            "ef_overwrite";
            "ef_merge";
            "ef_good";
            "ef_retry_do";
            "ef_retry_while";
            "ef_loop_unread";
          ];
      };
    const_env = [];
    java_functions = Slicer.All_user;
  }

let test_lint_errflow_overwrite () =
  let out = Slicer.slice ~source:errflow_driver errflow_config in
  let errs = lint_errors Lint.Error_flow out.Slicer.lint in
  check_bool "overwritten before test caught" true
    (has_finding ~anchor:"ef_overwrite" ~msg:"overwritten" errs)

let test_lint_errflow_dropped_at_merge () =
  let out = Slicer.slice ~source:errflow_driver errflow_config in
  let errs = lint_errors Lint.Error_flow out.Slicer.lint in
  check_bool "dropped on one path caught" true
    (has_finding ~anchor:"ef_merge" ~msg:"dropped" errs);
  check_bool "fully checked function silent" false
    (has_finding ~anchor:"ef_good" ~msg:"" errs)

(* A result tested only by the condition of the loop that stores it is
   examined: the condition runs again after the body. Both analyses see
   it; a loop whose condition reads something else still drops it. *)
let test_lint_errflow_loop_condition () =
  let out = Slicer.slice ~source:errflow_driver errflow_config in
  let file = out.Slicer.file in
  let syntactic =
    List.map
      (fun (v : Errcheck.violation) -> v.Errcheck.v_function)
      (Errcheck.find_violations file ~extra:[])
  in
  let flow =
    List.map
      (fun (v : Errcheck.flow_violation) -> v.Errcheck.fv_function)
      (Errcheck.flow_violations file ~extra:[])
  in
  List.iter
    (fun fn ->
      check_bool (fn ^ " passes the syntactic scan") false
        (List.mem fn syntactic);
      check_bool (fn ^ " passes the flow pass") false (List.mem fn flow))
    [ "ef_retry_do"; "ef_retry_while" ];
  check_bool "a loop that never tests the result is still caught" true
    (List.mem "ef_loop_unread" syntactic && List.mem "ef_loop_unread" flow)

(* A driver whose nucleus interrupt handler consumes a field the
   user-level code shares, without ever range-checking it. The bounds
   test in ib_open does NOT count: after conversion ib_open runs at user
   level, so a hostile driver can skip it. *)
let inbound_driver =
  {|
struct ib { int n; int total; };

void printk_info(int code);

static void ib_intr(struct ib *a) {
  a->total = a->total + a->n;
}

static int ib_report(struct ib *a) {
  return a->n;
}

static int ib_open(struct ib *a) {
  if (a->n > 64)
    return -22;
  return 0;
}
|}

let inbound_config =
  {
    Slicer.partition =
      {
        Partition.driver_name = "ib";
        critical_roots = [ "ib_intr" ];
        interface_functions = [ "ib_intr"; "ib_open"; "ib_report" ];
      };
    const_env = [];
    java_functions = Slicer.All_user;
  }

(* Same shape, but the nucleus bounds-checks the field before use. *)
let inbound_checked_driver =
  {|
struct ib { int n; int total; };

void printk_info(int code);

static void ib_intr(struct ib *a) {
  if (a->n < 0 || a->n > 64)
    return;
  a->total = a->total + a->n;
}

static int ib_report(struct ib *a) {
  return a->n;
}
|}

(* Validation routed through a helper whose name marks it a validator. *)
let inbound_clamped_driver =
  {|
struct ib { int n; int total; };

void ib_clamp_range(int v);

static void ib_intr(struct ib *a) {
  ib_clamp_range(a->n);
  a->total = a->total + a->n;
}

static int ib_report(struct ib *a) {
  return a->n;
}
|}

let inbound_checked_config =
  {
    inbound_config with
    Slicer.partition =
      {
        inbound_config.Slicer.partition with
        Partition.interface_functions = [ "ib_intr"; "ib_report" ];
      };
  }

let inbound_findings findings =
  List.filter
    (fun (f : Lint.finding) -> f.Lint.f_pass = Lint.Inbound_validation)
    (Lint.violations findings)

let test_lint_inbound_unvalidated () =
  let out = Slicer.slice ~source:inbound_driver inbound_config in
  let fs = inbound_findings out.Slicer.lint in
  check_bool "unvalidated inbound field caught" true
    (has_finding ~anchor:"ib" ~msg:"unvalidated inbound field: 'n'" fs);
  (* warnings, not errors: the fix may legitimately be a waiver *)
  check "inbound findings are warnings" 0
    (List.length (lint_errors Lint.Inbound_validation out.Slicer.lint))

let test_lint_inbound_user_check_untrusted () =
  (* ib_open's bounds test exists but runs at user level, so the field
     must still be flagged: an adversarial driver ignores its own checks. *)
  let out = Slicer.slice ~source:inbound_driver inbound_config in
  check_bool "user-level check does not clear the finding" true
    (has_finding ~anchor:"ib" ~msg:"'n'" (inbound_findings out.Slicer.lint))

let test_lint_inbound_negative () =
  let out =
    Slicer.slice ~source:inbound_checked_driver inbound_checked_config
  in
  check "nucleus bounds check clears the finding" 0
    (List.length (inbound_findings out.Slicer.lint))

let test_lint_inbound_validator_call () =
  let out =
    Slicer.slice ~source:inbound_clamped_driver inbound_checked_config
  in
  check "call to a clamp/check helper clears the finding" 0
    (List.length (inbound_findings out.Slicer.lint))

let test_lint_inbound_waiver () =
  let out = Slicer.slice ~source:inbound_driver inbound_config in
  let waivers =
    List.map
      (fun (f : Lint.finding) ->
        {
          Lint.w_pass = f.Lint.f_pass;
          w_anchor = f.Lint.f_anchor;
          w_line = f.Lint.f_line;
          w_reason = "validated at runtime by a Guard rule";
        })
      (inbound_findings out.Slicer.lint)
  in
  let report = Lint.apply_waivers ~driver:"ib" ~waivers out.Slicer.lint in
  check "inbound violations waived" 0
    (List.length
       (List.filter
          (fun (f : Lint.finding) -> f.Lint.f_pass = Lint.Inbound_validation)
          report.Lint.r_unwaived));
  check "waivers all consumed" 0 (List.length report.Lint.r_unused_waivers)

let test_lint_waivers () =
  let out = Slicer.slice ~source:marshal_driver marshal_config in
  let waivers =
    List.map
      (fun (v : Lint.finding) ->
        {
          Lint.w_pass = v.Lint.f_pass;
          w_anchor = v.Lint.f_anchor;
          w_line = v.Lint.f_line;
          w_reason = "test";
        })
      (Lint.violations out.Slicer.lint)
  in
  let stray = { (List.hd waivers) with Lint.w_line = 9999 } in
  let report =
    Lint.apply_waivers ~driver:"mb" ~waivers:(stray :: waivers) out.Slicer.lint
  in
  check "all violations waived" 0 (List.length report.Lint.r_unwaived);
  check "stray waiver reported" 1 (List.length report.Lint.r_unused_waivers);
  check_bool "json renders" true
    (Testutil.contains (Lint.to_json report) {|"driver":"mb"|});
  check_bool "text renders waiver" true
    (Testutil.contains (Lint.to_text report) "waived: test")

(* The shipped corpus must stay clean: every violation in the five
   bundled drivers is either fixed or carries a line-anchored waiver,
   and no waiver is stale. *)
let test_lint_corpus_clean () =
  let corpus =
    [
      ( "8139too",
        Decaf_drivers.Rtl8139_src.source,
        Decaf_drivers.Rtl8139_src.config,
        Decaf_drivers.Rtl8139_src.lint_waivers,
        [] );
      ( "e1000",
        Decaf_drivers.E1000_src.source,
        Decaf_drivers.E1000_src.config,
        Decaf_drivers.E1000_src.lint_waivers,
        Decaf_drivers.E1000_src.error_extra );
      ( "ens1371",
        Decaf_drivers.Ens1371_src.source,
        Decaf_drivers.Ens1371_src.config,
        Decaf_drivers.Ens1371_src.lint_waivers,
        [] );
      ( "uhci-hcd",
        Decaf_drivers.Uhci_src.source,
        Decaf_drivers.Uhci_src.config,
        Decaf_drivers.Uhci_src.lint_waivers,
        [] );
      ( "psmouse",
        Decaf_drivers.Psmouse_src.source,
        Decaf_drivers.Psmouse_src.config,
        Decaf_drivers.Psmouse_src.lint_waivers,
        [] );
    ]
  in
  List.iter
    (fun (name, source, config, waivers, errfns) ->
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
      check (name ^ " unwaived") 0 (List.length report.Lint.r_unwaived);
      check (name ^ " unused waivers") 0
        (List.length report.Lint.r_unused_waivers))
    corpus

(* the uhci ops-table dispatch is reported as an assumption, not silence *)
let test_lint_indirect_assumption () =
  let out =
    Slicer.slice ~source:Decaf_drivers.Uhci_src.source
      Decaf_drivers.Uhci_src.config
  in
  check_bool "indirect call surfaces as assumption" true
    (List.exists
       (fun (f : Lint.finding) ->
         f.Lint.f_severity = Lint.Info
         && Testutil.contains f.Lint.f_message "indirect call")
       out.Slicer.lint)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_slicer"
    [
      ( "loc_count",
        [
          tc "c" test_loc_count_c;
          tc "ocaml" test_loc_count_ocaml;
          tc "strings immune" test_loc_count_string_immunity;
        ] );
      ( "partition",
        [
          tc "basic" test_partition_basic;
          tc "transitive" test_partition_transitive;
          tc "unknown root" test_partition_unknown_root_rejected;
        ]
        @ qcheck_cases );
      ("annot", [ tc "collected" test_annotations_collected ]);
      ( "xdrspec",
        [
          tc "figure 3 rewrite" test_xdrspec_figure3_rewrite;
          tc "hyper and opaque" test_xdrspec_hyper_and_opaque;
          tc "wire size" test_xdrspec_wire_size;
          tc "text" test_xdrspec_text;
        ] );
      ( "plans",
        [
          tc "directions" test_plans_directions;
          tc "annotation forces field" test_plans_annotation_forces_field;
          tc "element store is a write" test_plans_element_store_is_write;
        ] );
      ("stubgen", [ tc "stub shapes" test_stub_generation ]);
      ( "splitgen",
        [
          tc "partitions functions" test_split_partitions_functions;
          tc "preserves comments" test_split_preserves_comments;
          tc "output reparses" test_split_output_reparses;
        ] );
      ( "regen",
        [
          tc "detects new annotation" test_regen_detects_new_annotation;
          tc "quiet when unchanged" test_regen_no_change_is_quiet;
        ] );
      ("report", [ tc "table 2 row" test_report_stats ]);
      ( "lint",
        [
          tc "sleep in atomic" test_lint_sleep_in_atomic;
          tc "xpc under spinlock" test_lint_xpc_under_spinlock;
          tc "lock negative" test_lint_lock_negative;
          tc "unbalanced lock" test_lint_unbalanced_lock;
          tc "annotation stale and narrow" test_lint_annotation_stale_and_narrow;
          tc "annotation missing" test_lint_annotation_missing;
          tc "annotation negative" test_lint_annotation_negative;
          tc "marshal unannotated pointer" test_lint_marshal_unannotated_pointer;
          tc "marshal negative and unknown len"
            test_lint_marshal_negative_and_unknown_len;
          tc "errflow overwrite" test_lint_errflow_overwrite;
          tc "errflow dropped at merge" test_lint_errflow_dropped_at_merge;
          tc "errflow loop condition" test_lint_errflow_loop_condition;
          tc "inbound unvalidated" test_lint_inbound_unvalidated;
          tc "inbound user check untrusted" test_lint_inbound_user_check_untrusted;
          tc "inbound negative" test_lint_inbound_negative;
          tc "inbound validator call" test_lint_inbound_validator_call;
          tc "inbound waiver" test_lint_inbound_waiver;
          tc "waivers" test_lint_waivers;
          tc "corpus clean" test_lint_corpus_clean;
          tc "indirect assumption" test_lint_indirect_assumption;
        ] );
    ]
