(* Tests for the mini-C frontend: lexer, parser, pretty-printer,
   symbol table, and call graph. *)

open Decaf_minic

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let sample_driver =
  {|
#include <linux/module.h>

typedef unsigned int u32_alias;

struct nic_ring {
  int head;
  int tail;
  uint32_t * __attribute__((exp(RING_LEN))) descs;
};

struct nic_adapter {
  struct nic_ring tx;      /* embedded first member */
  struct nic_ring rx;
  int msg_enable;
  char name[16];
};

int kmalloc_shim(int size);
void kfree_shim(int p);

static int read_reg(struct nic_adapter *a, int reg) {
  return reg + a->msg_enable;
}

static int setup_ring(struct nic_adapter *a) {
  int err = kmalloc_shim(sizeof(struct nic_ring));
  if (!err)
    goto fail;
  a->tx.head = 0;
  return 0;
fail:
  return -12;
}

int nic_open(struct nic_adapter *a) {
  int err;
  err = setup_ring(a);
  if (err)
    return err;
  while (read_reg(a, 0x10) == 0) {
    err = err + 1;
  }
  for (int i = 0; i < 4; i++)
    a->msg_enable = a->msg_enable | (1 << i);
  return 0;
}

void nic_poll(struct nic_adapter *a) {
  void (*cb)(int);
  a->msg_enable++;
}
|}

let parse_exn src = Parser.parse src

(* --- lexer --- *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "a->b == 0x1f && c <<= 2; /* note */ x" in
  let kinds = List.map fst toks in
  check_bool "has arrow" true (List.mem Token.Arrow kinds);
  check_bool "hex literal" true (List.mem (Token.Int_lit 0x1f) kinds);
  check_bool "shl-assign" true (List.mem Token.Shl_assign kinds);
  check_bool "comment skipped" true
    (not (List.exists (function Token.Ident "note" -> true | _ -> false) kinds))

let test_lexer_attribute () =
  let toks = Lexer.tokenize "__attribute__((exp(PCI_LEN)))" in
  match toks with
  | (Token.Attribute payload, _) :: _ ->
      Alcotest.(check string) "payload" "exp(PCI_LEN)" payload
  | _ -> Alcotest.fail "attribute not lexed"

let test_lexer_line_numbers () =
  let toks = Lexer.tokenize "a\nbb\n  ccc" in
  let lines =
    List.filter_map
      (function Token.Ident _, (l : Loc.t) -> Some l.Loc.line | _ -> None)
      toks
  in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3 ] lines

let test_lexer_error_reports_position () =
  match Lexer.tokenize "a\n  $" with
  | exception Lexer.Lex_error (_, loc) -> check "line" 2 loc.Loc.line
  | _ -> Alcotest.fail "expected lex error"

(* --- parser --- *)

let test_parse_sample () =
  let file = parse_exn sample_driver in
  check "functions" 4 (List.length (Ast.functions file));
  check "structs" 2 (List.length (Ast.structs file));
  check_bool "typedef recorded" true
    (List.mem_assoc "u32_alias" (Ast.typedefs file))

let test_parse_struct_attributes () =
  let file = parse_exn sample_driver in
  match Ast.find_struct file "nic_ring" with
  | Some s ->
      let descs = List.find (fun (f : Ast.field) -> f.Ast.fname = "descs") s.Ast.sfields in
      (match descs.Ast.fattrs with
      | [ { Ast.attr_name = "exp"; attr_arg = Some "RING_LEN" } ] -> ()
      | _ -> Alcotest.fail "attribute not attached");
      (match descs.Ast.ftyp with
      | Ast.Tptr (Ast.Tnamed "uint32_t") -> ()
      | t -> Alcotest.failf "wrong type %s" (Pp.typ_to_string t))
  | None -> Alcotest.fail "struct nic_ring missing"

let test_parse_goto_idiom () =
  let file = parse_exn sample_driver in
  match Ast.find_function file "setup_ring" with
  | Some f ->
      let has_goto = ref false and has_label = ref false in
      let rec scan (s : Ast.stmt) =
        match s.Ast.skind with
        | Ast.Sgoto "fail" -> has_goto := true
        | Ast.Slabel "fail" -> has_label := true
        | Ast.Sif (_, a, b) ->
            List.iter scan a;
            List.iter scan b
        | Ast.Sblock b -> List.iter scan b
        | _ -> ()
      in
      List.iter scan f.Ast.fbody;
      check_bool "goto" true !has_goto;
      check_bool "label" true !has_label
  | None -> Alcotest.fail "setup_ring missing"

let test_parse_expression_shapes () =
  (match Parser.parse_expr "a->b.c[3] = f(x, y + 1) & ~mask" with
  | Ast.Eassign (None, Ast.Eindex (Ast.Efield (Ast.Earrow _, "c"), Ast.Econst 3), Ast.Ebinop (Ast.Band, Ast.Ecall _, Ast.Eunop (Ast.Bnot, _)))
    ->
      ()
  | e -> Alcotest.failf "unexpected shape: %s" (Pp.expr_to_string e));
  match Parser.parse_expr "x ? y : z + 1" with
  | Ast.Econd (_, _, Ast.Ebinop (Ast.Add, _, _)) -> ()
  | e -> Alcotest.failf "ternary shape: %s" (Pp.expr_to_string e)

let test_parse_precedence () =
  match Parser.parse_expr "1 + 2 * 3 == 7 && 4 < 5" with
  | Ast.Ebinop
      ( Ast.Land,
        Ast.Ebinop (Ast.Eq, Ast.Ebinop (Ast.Add, _, Ast.Ebinop (Ast.Mul, _, _)), _),
        Ast.Ebinop (Ast.Lt, _, _) ) ->
      ()
  | e -> Alcotest.failf "precedence wrong: %s" (Pp.expr_to_string e)

let test_parse_function_locations () =
  let file = parse_exn sample_driver in
  match Ast.find_function file "nic_open" with
  | Some f ->
      check_bool "start before end" true
        (f.Ast.floc_start.Loc.line < f.Ast.floc_end.Loc.line);
      check_bool "spans the while loop" true
        (f.Ast.floc_end.Loc.line - f.Ast.floc_start.Loc.line >= 9)
  | None -> Alcotest.fail "nic_open missing"

let test_parse_switch () =
  let src =
    {|
static int classify(int id) {
  int kind = 0;
  switch (id) {
  case 0:
    kind = 1;
    break;
  case 3:
  case 4:
    kind = 2;
    break;
  default:
    kind = -1;
  }
  return kind;
}
|}
  in
  let file = parse_exn src in
  match Ast.find_function file "classify" with
  | None -> Alcotest.fail "classify missing"
  | Some f -> (
      let sw =
        List.find_map
          (fun (s : Ast.stmt) ->
            match s.Ast.skind with
            | Ast.Sswitch (e, cases) -> Some (e, cases)
            | _ -> None)
          f.Ast.fbody
      in
      match sw with
      | Some (Ast.Eident "id", cases) ->
          check "four case arms" 4 (List.length cases);
          (match List.rev cases with
          | Ast.Default _ :: _ -> ()
          | _ -> Alcotest.fail "default not last");
          (* fall-through: case 3 has an empty body *)
          (match List.nth cases 1 with
          | Ast.Case (3, []) -> ()
          | _ -> Alcotest.fail "fall-through case 3");
          (* round trip through the printer: print/parse reaches a
             fixpoint *)
          let printed = Pp.file_to_string file in
          let reparsed = Parser.parse printed in
          Alcotest.(check string) "switch survives the printer" printed
            (Pp.file_to_string reparsed)
      | Some _ -> Alcotest.fail "wrong scrutinee"
      | None -> Alcotest.fail "no switch parsed")

let test_parse_error_position () =
  match Parser.parse "int f( {" with
  | exception Parser.Parse_error (_, _) -> ()
  | _ -> Alcotest.fail "expected parse error"

(* --- pretty-printer round trip --- *)

let strip_locs_file (f : Ast.file) =
  (* compare ASTs ignoring locations by erasing them *)
  let d = Loc.dummy in
  let rec stmt (s : Ast.stmt) =
    { Ast.sloc = d; skind = kind s.Ast.skind }
  and kind = function
    | Ast.Sif (c, a, b) -> Ast.Sif (c, List.map stmt a, List.map stmt b)
    | Ast.Swhile (c, b) -> Ast.Swhile (c, List.map stmt b)
    | Ast.Sdo (b, c) -> Ast.Sdo (List.map stmt b, c)
    | Ast.Sfor (i, c, u, b) ->
        Ast.Sfor (Option.map stmt i, c, u, List.map stmt b)
    | Ast.Sblock b -> Ast.Sblock (List.map stmt b)
    | k -> k
  in
  let glob = function
    | Ast.Gfunc fn ->
        Ast.Gfunc
          {
            fn with
            Ast.fbody = List.map stmt fn.Ast.fbody;
            floc_start = d;
            floc_end = d;
          }
    | Ast.Gstruct s -> Ast.Gstruct { s with Ast.sloc = d }
    | Ast.Gtypedef { tname; ttyp; tloc = _ } ->
        Ast.Gtypedef { tname; ttyp; tloc = d }
    | Ast.Gfundecl { dname; dret; dparams; dloc = _ } ->
        Ast.Gfundecl { dname; dret; dparams; dloc = d }
    | Ast.Gvar { vname; vtyp; vinit; vloc = _ } ->
        Ast.Gvar { vname; vtyp; vinit; vloc = d }
    | Ast.Gpragma (p, _) -> Ast.Gpragma (p, d)
  in
  { Ast.source = ""; globals = List.map glob f.Ast.globals }

let test_pp_roundtrip_sample () =
  let file = parse_exn sample_driver in
  let printed = Pp.file_to_string file in
  let reparsed = Parser.parse printed in
  check_bool "round trip equal (modulo locations)" true
    (strip_locs_file file = strip_locs_file reparsed)

let prop_pp_expr_roundtrip =
  (* random expression generator *)
  let open QCheck in
  let leaf =
    Gen.oneof
      [
        Gen.map (fun n -> Ast.Econst n) (Gen.int_range 0 1000);
        Gen.oneofl [ Ast.Eident "x"; Ast.Eident "reg"; Ast.Eident "dev" ];
      ]
  in
  let gen_expr =
    Gen.sized (fun n ->
        Gen.fix
          (fun self n ->
            if n <= 1 then leaf
            else
              Gen.oneof
                [
                  leaf;
                  Gen.map2
                    (fun a b -> Ast.Ebinop (Ast.Add, a, b))
                    (self (n / 2)) (self (n / 2));
                  Gen.map2
                    (fun a b -> Ast.Ebinop (Ast.Band, a, b))
                    (self (n / 2)) (self (n / 2));
                  Gen.map (fun a -> Ast.Eunop (Ast.Bnot, a)) (self (n - 1));
                  Gen.map (fun a -> Ast.Earrow (a, "field")) (self (n - 1));
                  Gen.map2
                    (fun a b -> Ast.Ecall (Ast.Eident "f", [ a; b ]))
                    (self (n / 2)) (self (n / 2));
                  Gen.map2
                    (fun a b -> Ast.Eindex (a, b))
                    (self (n / 2)) (self (n / 2));
                ])
          (min n 20))
  in
  QCheck.Test.make ~name:"printer/parser expression roundtrip" ~count:300
    (QCheck.make ~print:Pp.expr_to_string gen_expr)
    (fun e -> Parser.parse_expr (Pp.expr_to_string e) = e)

(* --- symtab --- *)

let test_symtab () =
  let file = parse_exn sample_driver in
  let tab = Symtab.build file in
  check "functions" 4 (List.length (Symtab.functions tab));
  check_bool "kmalloc_shim declared only" true
    (List.mem "kmalloc_shim" (Symtab.declared_only tab));
  check_bool "setup_ring defined" true (Symtab.is_defined tab "setup_ring");
  (match Symtab.resolve tab (Ast.Tnamed "u32_alias") with
  | Ast.Tint { unsigned = true; kind = Ast.Iint } -> ()
  | t -> Alcotest.failf "resolve: %s" (Pp.typ_to_string t));
  check_bool "unknown typedef unresolved" true
    (Symtab.resolve tab (Ast.Tnamed "wat") = Ast.Tnamed "wat")

(* --- callgraph --- *)

let test_callgraph_direct () =
  let file = parse_exn sample_driver in
  let cg = Callgraph.build file in
  Alcotest.(check (list string))
    "nic_open calls" [ "read_reg"; "setup_ring" ]
    (List.sort compare (Callgraph.callees cg "nic_open"));
  Alcotest.(check (list string))
    "setup_ring externals" [ "kmalloc_shim" ]
    (Callgraph.external_callees cg "setup_ring");
  Alcotest.(check (list string))
    "callers of setup_ring" [ "nic_open" ]
    (Callgraph.callers cg "setup_ring")

let test_callgraph_reachability () =
  let file = parse_exn sample_driver in
  let cg = Callgraph.build file in
  Alcotest.(check (list string))
    "reachable from nic_open"
    [ "nic_open"; "read_reg"; "setup_ring" ]
    (Callgraph.reachable cg ~roots:[ "nic_open" ]);
  Alcotest.(check (list string))
    "unknown root reaches nothing" []
    (Callgraph.reachable cg ~roots:[ "no_such" ])

let indirect_driver =
  {|
typedef void (*handler_t)(int);

static void helper_a(int x) { x = x + 1; }
static void helper_b(int x) { x = x + 2; }
static void not_taken(int x) { x = x + 3; }

struct ops { int dummy; };

static void dispatch(struct ops *o, int which) {
  handler_t h;
  h = helper_a;
  if (which)
    h = helper_b;
  (*h)(which);
}
|}

let test_callgraph_indirect () =
  let file = parse_exn indirect_driver in
  let cg = Callgraph.build file in
  let callees = Callgraph.callees cg "dispatch" in
  check_bool "helper_a reachable via pointer" true (List.mem "helper_a" callees);
  check_bool "helper_b reachable via pointer" true (List.mem "helper_b" callees);
  check_bool "not_taken unreachable" true (not (List.mem "not_taken" callees));
  Alcotest.(check (list string))
    "address taken" [ "helper_a"; "helper_b" ]
    (Callgraph.address_taken cg)

(* --- traversals --- *)

(* Every statement kind, nested: an if inside an if, a for with an
   init, a switch whose default case holds a block. *)
let traversal_snippet =
  {|
int walk(int a, int b) {
  int x = a;
  if (a > 0) {
    if (b) x = 1; else x = 2;
  }
  while (x < 10) x++;
  do { x--; } while (x > 5);
  for (int i = 0; i < 3; i++) b = b + i;
  switch (a) {
  case 1:
    x = 3;
    break;
  default:
    { x = 4; }
  }
  return x + b;
}
|}

let test_traversals () =
  let fn =
    match Ast.functions (parse_exn traversal_snippet) with
    | [ fn ] -> fn
    | _ -> Alcotest.fail "expected one function"
  in
  let kind (s : Ast.stmt) =
    match s.Ast.skind with
    | Ast.Sexpr _ -> "expr"
    | Ast.Sdecl _ -> "decl"
    | Ast.Sif _ -> "if"
    | Ast.Swhile _ -> "while"
    | Ast.Sdo _ -> "do"
    | Ast.Sfor _ -> "for"
    | Ast.Sreturn _ -> "return"
    | Ast.Sgoto _ -> "goto"
    | Ast.Slabel _ -> "label"
    | Ast.Sswitch _ -> "switch"
    | Ast.Sbreak -> "break"
    | Ast.Scontinue -> "continue"
    | Ast.Sblock _ -> "block"
  in
  let row s =
    String.concat " | "
      (kind s :: List.map Pp.expr_to_string (Ast.exprs_of s))
  in
  Alcotest.(check (list string))
    "pre-order statements and their own expressions"
    [
      "decl | a";
      "if | (a > 0)";
      "if | b";
      "expr | x = 1";
      "expr | x = 2";
      "while | (x < 10)";
      "expr | (x++)";
      "do | (x > 5)";
      "expr | (x--)";
      "for | (i < 3) | (i++)";
      "decl | 0";
      "expr | b = (b + i)";
      "switch | a";
      "expr | x = 3";
      "break";
      "block";
      "expr | x = 4";
      "return | (x + b)";
    ]
    (List.map row (Ast.stmts fn.Ast.fbody));
  Alcotest.(check (list string))
    "every expression node once, parents first"
    [
      "a";
      "(a > 0)"; "a"; "0";
      "b";
      "x = 1"; "x"; "1";
      "x = 2"; "x"; "2";
      "(x < 10)"; "x"; "10";
      "(x++)"; "x";
      "(x > 5)"; "x"; "5";
      "(x--)"; "x";
      "(i < 3)"; "i"; "3"; "(i++)"; "i";
      "0";
      "b = (b + i)"; "b"; "(b + i)"; "b"; "i";
      "a";
      "x = 3"; "x"; "3";
      "x = 4"; "x"; "4";
      "(x + b)"; "x"; "b";
    ]
    (List.rev
       (Ast.fold_exprs_stmts
          (fun acc e -> Pp.expr_to_string e :: acc)
          [] fn.Ast.fbody))

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "decaf_minic"
    [
      ( "lexer",
        [
          tc "token kinds" test_lexer_tokens;
          tc "attribute blobs" test_lexer_attribute;
          tc "line numbers" test_lexer_line_numbers;
          tc "error position" test_lexer_error_reports_position;
        ] );
      ( "parser",
        [
          tc "sample driver" test_parse_sample;
          tc "struct attributes" test_parse_struct_attributes;
          tc "goto idiom" test_parse_goto_idiom;
          tc "expression shapes" test_parse_expression_shapes;
          tc "precedence" test_parse_precedence;
          tc "function locations" test_parse_function_locations;
          tc "switch statement" test_parse_switch;
          tc "parse error" test_parse_error_position;
        ] );
      ( "printer",
        [
          tc "file round trip" test_pp_roundtrip_sample;
          QCheck_alcotest.to_alcotest prop_pp_expr_roundtrip;
        ] );
      ("symtab", [ tc "symbols" test_symtab ]);
      ("ast", [ tc "traversals" test_traversals ]);
      ( "callgraph",
        [
          tc "direct edges" test_callgraph_direct;
          tc "reachability" test_callgraph_reachability;
          tc "indirect via address-taken" test_callgraph_indirect;
        ] );
    ]
