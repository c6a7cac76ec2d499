(** Error-handling analysis over legacy driver code (§5.1).

    Kernel C signals failure with negative integer returns; callers must
    test every return value and unwind through goto labels. Rewriting in
    a language with checked exceptions surfaces the places where this
    discipline was broken: the compiler forces every error to be
    handled. This module is the static-analysis equivalent: it finds
    calls whose error return is discarded or stored but never examined —
    the 28 cases the paper found in the E1000 — and measures how much
    code the exception rewrite deletes (the ~8 % of [e1000_hw.c]): the
    pure propagation statements ([if (ret) return ret;] and variants). *)

type violation_kind =
  | Ignored_return  (** the error-returning call is a bare statement *)
  | Unchecked_variable of string
      (** the result is stored but never read afterwards *)

type violation = {
  v_function : string;  (** containing function *)
  v_callee : string;  (** the error-returning function called *)
  v_kind : violation_kind;
  v_line : int;
}

val find_violations :
  Decaf_minic.Ast.file -> extra:string list -> violation list
(** Calls to error-returning functions whose result is ignored or never
    read again. A function returns errors when it contains a
    [return -CONST], returns another error-returning function's result,
    or is one of the [extra] known kernel functions. *)

type flow_kind =
  | Overwritten of int
      (** the stored error result was overwritten before any test; the
          payload is the line where the lost result was stored *)
  | Dropped
      (** some path reaches a return or the function end without ever
          examining the stored result *)

type flow_violation = {
  fv_function : string;
  fv_callee : string;  (** the error-returning function whose result is lost *)
  fv_var : string;
  fv_kind : flow_kind;
  fv_line : int;
      (** [Overwritten]: line of the overwrite; [Dropped]: line where the
          dropped result was stored *)
}

val flow_violations :
  Decaf_minic.Ast.file -> extra:string list -> flow_violation list
(** Per-function dataflow upgrade of {!find_violations}: tracks, per
    variable, whether it holds an untested error result. Any read
    counts as a test; branch merges keep the untested state alive
    (may-analysis), so results tested on one path but dropped on
    another are still found. Purely additive — {!find_violations} is
    unchanged. *)

val exception_savings :
  Decaf_minic.Ast.file -> funcs:string list -> int * int
(** [(lines_removed, original_loc)] over the listed functions: the
    Figure 5 measurement. *)
