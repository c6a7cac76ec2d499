(** The legacy E1000 driver source (mini-C), scaled down ~10x from the
    14,204-line Linux 2.6.18.1 original while preserving its structure:
    an [e1000_hw.c] hardware layer written in return-code style, the main
    driver with the goto error-handling idiom, module-parameter checking,
    and the data-path/interrupt functions that must stay in the kernel.

    The hardware-layer functions carry the same class of latent bugs the
    paper found when converting to checked exceptions: error returns that
    are ignored or stored and never tested. Each seeded site is marked
    [BUG:] in a comment; {!Decaf_slicer.Errcheck} finds exactly
    {!seeded_bugs} of them. *)

val source : string
val config : Decaf_slicer.Slicer.config

val hw_layer_functions : string list
(** The functions making up the [e1000_hw.c] section, used by the
    exception-savings measurement. *)

val error_extra : string list
(** Kernel functions known to return errors, seeding the analysis. *)

val lint_waivers : Decaf_slicer.Lint.waiver list
(** Line-anchored decaf-lint suppressions: the seeded error-handling
    bugs (kept for the §5.1 measurement) and the forward-compatibility
    annotation kept for the evolution scenario. *)
