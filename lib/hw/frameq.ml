(* Struct of arrays, so a slot is three array cells and pushing a frame
   allocates nothing once the ring has grown to its working depth. The
   capacity stays a power of two, so wrapping is a mask. A dropped slot
   keeps its tag: tags are built once per owner (the link's completion
   callbacks), and not clearing them saves a write barrier per frame. *)
type 'a t = {
  mutable frames : bytes array;
  mutable stamps : int array;
  mutable tags : 'a array;
  mutable head : int;  (** slot of the oldest frame *)
  mutable len : int;
}

let create blank =
  {
    frames = Array.make 8 Bytes.empty;
    stamps = Array.make 8 0;
    tags = Array.make 8 blank;
    head = 0;
    len = 0;
  }

let length q = q.len
let is_empty q = q.len = 0

(* Double the ring, moving the frames to slots 0 .. len-1 in order. *)
let grow q =
  let n = Array.length q.frames in
  let widen a fill =
    let b = Array.make (2 * n) fill in
    for i = 0 to q.len - 1 do
      b.(i) <- a.((q.head + i) land (n - 1))
    done;
    b
  in
  q.frames <- widen q.frames Bytes.empty;
  q.stamps <- widen q.stamps 0;
  q.tags <- widen q.tags q.tags.(0);
  q.head <- 0

let push q frame stamp tag =
  if q.len = Array.length q.frames then grow q;
  let i = (q.head + q.len) land (Array.length q.frames - 1) in
  q.frames.(i) <- frame;
  q.stamps.(i) <- stamp;
  (* a tag is usually the callback the slot held last time: skip the
     write barrier then *)
  if q.tags.(i) != tag then q.tags.(i) <- tag;
  q.len <- q.len + 1

(* An empty ring reads as its last dropped slot: [Bytes.empty] and a
   stale stamp and tag. Callers test [is_empty] first, so the reads
   carry no check of their own; only [drop] must refuse. *)
let head q = q.frames.(q.head)
let head_stamp q = q.stamps.(q.head)
let head_tag q = q.tags.(q.head)

let drop q =
  if q.len = 0 then invalid_arg "Frameq.drop: empty";
  q.frames.(q.head) <- Bytes.empty;
  q.head <- (q.head + 1) land (Array.length q.frames - 1);
  q.len <- q.len - 1

let clear q =
  while q.len > 0 do
    drop q
  done
