let next = ref 0xc000_0000

let alloc ~size =
  if size < 0 then invalid_arg "Addr.alloc";
  let a = !next in
  next := a + ((size + 15) land lnot 15) + 16;
  a

let embedded ~parent ~offset = parent + offset
let reset () = next := 0xc000_0000
let () = Decaf_kernel.Boot.on_reset reset
