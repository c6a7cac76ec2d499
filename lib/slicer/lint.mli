(** Decaf-lint: interprocedural static checks over a legacy driver
    source (the analysis counterpart of the runtime's combolock and
    marshaling machinery).

    Five passes run over the MiniC AST and the call graph:

    - {b Lock/XPC discipline}: a lock-state lattice (spinlock depth,
      IRQ-disable depth) is propagated intraprocedurally through each
      body and interprocedurally along call edges starting from
      interrupt-context roots. Sleeping while atomic and XPC boundary
      crossings while atomic are errors — the static counterpart of the
      paper's "never call up with a spinlock held" rule that
      {!Decaf_kernel.Sync.Combolock} enforces dynamically.
    - {b Annotation soundness}: every [DECAF_RVAR/WVAR/RWVAR] annotation
      is compared against the field accesses actually reachable from the
      annotating function, and the post-conversion marshal plan (library
      C bodies plus annotations) is compared against the ground-truth
      plan — the §3.2.4 evolution hazard of stale or missing
      annotations.
    - {b Marshal boundary}: pointer-typed fields of structs that cross
      the XPC boundary must carry an [exp]/[opt] attribute; [exp] length
      constants must be resolvable (XDR generation silently defaults
      unknown constants to 16).
    - {b Error flow}: the syntactic {!Errcheck} findings plus the
      flow-sensitive {!Errcheck.flow_violations} results (error results
      overwritten before being tested, error values dropped at merge
      points).
    - {b Inbound validation}: every field the marshal plan copies in
      from user level must be examined (compared, switched over, or
      passed to a [*valid*/*check*/*clamp*] helper) by kernel-placed
      code — the static counterpart of the runtime's
      {!Decaf_xpc.Guard} per-field validators.  User-level checks do
      not count: an untrusted driver checking its own output proves
      nothing.

    Findings are either violations ([Error]/[Warning] — must be fixed or
    explicitly waived with a line-anchored suppression) or assumptions
    ([Info] — conservative notes, e.g. the assumed targets of an
    indirect call). *)

type pass =
  | Lock_discipline
  | Annotation_soundness
  | Marshal_boundary
  | Error_flow
  | Inbound_validation

type severity = Error | Warning | Info

type finding = {
  f_pass : pass;
  f_severity : severity;
  f_anchor : string;
      (** containing function, or the struct name for struct-level
          findings *)
  f_line : int;  (** 1-based line in the driver source *)
  f_message : string;
  f_witness : string list;
      (** supporting chain, e.g. the call path establishing an atomic
          context *)
}

type waiver = {
  w_pass : pass;
  w_anchor : string;
  w_line : int;
  w_reason : string;  (** one-line justification, shown in the report *)
}

type report = {
  r_driver : string;
  r_findings : finding list;  (** everything, in source order *)
  r_waived : (finding * waiver) list;
  r_unwaived : finding list;  (** violations with no matching waiver *)
  r_assumptions : finding list;  (** [Info] findings *)
  r_unused_waivers : waiver list;
      (** waivers matching no finding — kept visible so suppressions
          cannot silently outlive the code they excuse *)
}

val severity_name : severity -> string

val analyze :
  ?extra_errfns:string list ->
  file:Decaf_minic.Ast.file ->
  partition:Partition.result ->
  annots:Annot.t ->
  spec:Xdrspec.spec ->
  const_env:(string * int) list ->
  decaf_funcs:string list ->
  library_funcs:string list ->
  unit ->
  finding list
(** Run all five passes. The lock pass treats as interrupt context the
    partition's critical roots whose name marks them as entry points of
    it (contains "intr", "irq" or "interrupt"); [extra_errfns] seeds the
    error-flow pass like {!Errcheck.find_violations}'s [extra]. *)

val violations : finding list -> finding list
(** The [Error] and [Warning] findings. *)

val apply_waivers :
  driver:string -> waivers:waiver list -> finding list -> report
(** Match waivers to violations by (pass, anchor, line). Each waiver
    suppresses at most the violations at its exact anchor and line;
    unmatched waivers are reported back. *)

val to_text : report -> string
(** Human-readable report, one line per finding plus a summary. *)

val to_json : report -> string
(** Machine-readable report (stable field names, one JSON object). *)
