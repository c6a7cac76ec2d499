type t = Kernel | Driver_lib | Decaf_driver

let to_string = function
  | Kernel -> "kernel"
  | Driver_lib -> "driver-library"
  | Decaf_driver -> "decaf-driver"

let pp ppf d = Format.pp_print_string ppf (to_string d)

let tabulate f =
  let k = f Kernel and l = f Driver_lib and d = f Decaf_driver in
  function Kernel -> k | Driver_lib -> l | Decaf_driver -> d
let cur = ref Kernel
let current () = !cur

let call_in d f a b =
  let prev = !cur in
  cur := d;
  match f a b with
  | v ->
      cur := prev;
      v
  | exception e ->
      cur := prev;
      raise e

let with_domain d f = call_in d (fun f () -> f ()) f ()

let is_user = function Kernel -> false | Driver_lib | Decaf_driver -> true
let () = Decaf_kernel.Boot.on_reset (fun () -> cur := Kernel)
