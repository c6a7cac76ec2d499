(** Fixed-bucket log-linear latency histograms and named event paths.

    Values are integer nanoseconds. The layout is 64 exact unit buckets
    for [0, 64), then one octave per power of two, each split into 64
    linear sub-buckets, up to 2^50 ns; the relative quantization error is
    bounded by 1/64. Samples beyond the last bucket land in a separate
    overflow count and report the true maximum from {!percentile}.

    The module has no dependency on {!Clock}: the clock stamps tracked
    events and records here, never the other way around. *)

type t

val create : unit -> t
val clear : t -> unit
(** Zero every bucket and counter, keeping the allocation. *)

val observe : t -> int -> unit
(** Record one sample (negative values clamp to 0). *)

val count : t -> int
(** Total samples recorded, overflow included. *)

val overflow_count : t -> int
(** Samples that fell beyond the last bucket. *)

val min_ns : t -> int
val max_ns : t -> int
val sum_ns : t -> int

val percentile : t -> float -> int
(** [percentile t p] with [p] in [0, 1]: the upper bound of the bucket
    holding the sample of rank [ceil (p * count)], capped at the true
    maximum; 0 on an empty histogram. *)

val merge : into:t -> t -> unit
(** Add [src]'s buckets and counters into [into]. *)

val merged : t list -> t
(** Fresh histogram holding the sum of the arguments (per-lane merge). *)

(** {2 Bucket introspection (tests, exactness proofs)} *)

val num_buckets : int
val bucket_index : int -> int
(** Bucket index for a value; [>= num_buckets] means overflow. *)

val bucket_bounds : int -> int * int
(** Inclusive [(low, high)] value range of a bucket index. *)

(** {2 Event paths}

    One histogram per named event path. A producer resolves its handle
    once with {!path} and records through {!observe_at}, which hashes
    nothing and allocates nothing after the path's first observation.
    A path is listed by {!paths} and {!find} from its first observation
    after a {!reset} until the next {!reset}; [Clock.reset] calls it, so
    every boot starts with empty timelines. *)

type path

val path : string -> path
(** The handle for a path name; the same name always gives the same
    handle. Interning allocates no histogram and lists nothing. *)

val name : path -> string

val observe_at : path -> int -> unit
(** Record one sample on the path, listing it if it is not listed. *)

val find : string -> t option
(** The histogram of a listed path. *)

val paths : unit -> string list
(** Listed paths, sorted. *)

val clear_paths : unit -> unit
(** Zero every listed histogram, keeping the paths listed (phase
    windows). *)

val reset : unit -> unit
(** Zero every histogram in place and unlist every path. *)
