type gfp = Atomic | Kernel

type allocation = { id : int; tag : string; bytes : int; mutable live : bool }

exception Double_free of string
exception Out_of_memory of string

let next_id = ref 0
let live : (int, allocation) Hashtbl.t = Hashtbl.create 64
let countdown = ref None

let inject_failure ~after =
  if after < 1 then invalid_arg "Kmem.inject_failure";
  countdown := Some after

let clear_injection () = countdown := None

let should_fail () =
  match !countdown with
  | None -> false
  | Some 1 ->
      countdown := None;
      true
  | Some n ->
      countdown := Some (n - 1);
      false

let alloc ?(gfp = Kernel) ~tag bytes =
  if bytes < 0 then invalid_arg "Kmem.alloc";
  (match gfp with
  | Kernel -> Sched.assert_may_block ("GFP_KERNEL allocation of " ^ tag)
  | Atomic -> ());
  if should_fail () || Faultinject.fires ~site:"kmem.alloc" Faultinject.Alloc_fail
  then None
  else begin
    incr next_id;
    let a = { id = !next_id; tag; bytes; live = true } in
    Hashtbl.replace live a.id a;
    Some a
  end

let alloc_exn ?gfp ~tag bytes =
  match alloc ?gfp ~tag bytes with
  | Some a -> a
  | None -> raise (Out_of_memory tag)

let free a =
  if not a.live then raise (Double_free a.tag);
  a.live <- false;
  Hashtbl.remove live a.id

let size a = a.bytes

let outstanding () =
  Hashtbl.fold (fun _ a (n, b) -> (n + 1, b + a.bytes)) live (0, 0)

let leaks () =
  Hashtbl.fold (fun _ a acc -> a :: acc) live []
  |> List.sort (fun a b -> compare a.id b.id)
  |> List.map (fun a -> (a.tag, a.bytes))

let reset () =
  Hashtbl.reset live;
  countdown := None;
  next_id := 0
