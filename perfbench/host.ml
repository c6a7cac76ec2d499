(* Host-side measurement: a monotonic nanosecond clock, the median of
   samples, and the allocation counters of the running domain. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

let median xs =
  match List.length xs with
  | 0 -> 0.
  | n ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

type gc = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  minor_collections : int;
  major_collections : int;
}

let gc () =
  let s = Gc.quick_stat () in
  {
    (* [Gc.minor_words] is exact; the quick_stat field lags until the
       next minor collection *)
    minor_words = Gc.minor_words ();
    major_words = s.Gc.major_words;
    promoted_words = s.Gc.promoted_words;
    minor_collections = s.Gc.minor_collections;
    major_collections = s.Gc.major_collections;
  }

(* Words allocated between two readings: minor + major - promoted, so a
   promoted word is counted once. *)
let allocated a b =
  b.minor_words -. a.minor_words
  +. (b.major_words -. a.major_words)
  -. (b.promoted_words -. a.promoted_words)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.
