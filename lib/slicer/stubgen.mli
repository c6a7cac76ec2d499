(** Stub generation (§2.4, §3.1.1).

    For each entry point the partition found, emits the text of the stub
    that carries a call across a boundary:

    - a {e kernel stub} replacing a user-moved function in the driver
      nucleus (it marshals arguments and XPCs up), and
    - a {e Jeannie stub} letting pure Java invoke a C/kernel function:
      object-tracker translation, XDR copy in, the backtick-call, XDR
      copy back — the paper's Figure 2. *)

val generate :
  Decaf_minic.Ast.file -> Partition.result -> (string * string) list
(** [(stub name, stub code)] for every entry point of the partition;
    kernel stubs for user entry points, Jeannie stubs for kernel entry
    points that are defined in the driver. *)
