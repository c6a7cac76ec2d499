(** The E1000 evolution corpus — the paper's §5.2 experiment.

    A set of patches standing in for the 320 revisions between the
    2.6.18.1 and 2.6.27 kernels (scaled ~16x down), applied in the same
    two batches (before / after 2.6.22). Each patch is a textual edit to
    the legacy source; the experiment applies them, re-slices, and
    classifies every changed line by the partition component it lands
    in. Interface changes are those that touch shared structures and so
    require new marshaling annotations and stub regeneration. *)

type batch = Before_2_6_22 | After_2_6_22

type patch = {
  p_batch : batch;
  p_title : string;
  p_needle : string;  (** text replaced by the patch *)
  p_replacement : string;
}

type component = Nucleus_change | Decaf_change | Interface_change

type summary = {
  nucleus_lines : int;
  decaf_lines : int;
  interface_lines : int;
  patches_applied : int;
  new_annotations : int;  (** DECAF_*VAR annotations the patches add *)
}

val patches : patch list

val apply : ?batches:batch list -> string -> string
(** Apply the selected batches (default: all) to a source text; raises
    [Failure] if a needle is missing. *)

val classify : patch -> Decaf_slicer.Partition.result -> component
(** Where the patch's change lands, judged against the original
    partition. *)

val run : unit -> summary
(** Apply everything to {!E1000_src.source}, verify the patched driver
    still parses and re-slices, and tally Table 4. *)
