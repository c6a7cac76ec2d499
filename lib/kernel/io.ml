type width = W8 | W16 | W32

let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4

type space = Port | Mmio

type region = {
  space : space;
  base : int;
  len : int;
  read : int -> width -> int;
  write : int -> width -> int -> unit;
}

(* Each space keeps its active regions in an array sorted by base, so
   an access finds its region by binary search. Claims are rare (device
   setup) and accesses are on every register read and write; a claim
   copies the array once, with the new region at its sorted place, and
   checks overlap against its two neighbours only, which suffices
   because the regions already claimed never overlap each other. *)
let ports : region array ref = ref [||]
let mmio : region array ref = ref [||]
let table = function Port -> ports | Mmio -> mmio

(* The number of regions in [a] whose base is at or below [addr]. *)
let rec count_below a addr lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) / 2 in
    if a.(mid).base <= addr then count_below a addr (mid + 1) hi
    else count_below a addr lo mid

let register space ~base ~len ~read ~write =
  if len <= 0 then invalid_arg "Io.register";
  let t = table space in
  let a = !t in
  let n = Array.length a in
  let i = count_below a base 0 n in
  if (i > 0 && base < a.(i - 1).base + a.(i - 1).len)
     || (i < n && a.(i).base < base + len)
  then
    Panic.bug "I/O range %#x+%#x overlaps an existing claim" base len;
  let r = { space; base; len; read; write } in
  let grown = Array.make (n + 1) r in
  Array.blit a 0 grown 0 i;
  Array.blit a i grown (i + 1) (n - i);
  t := grown;
  r

let register_ports = register Port
let register_mmio = register Mmio

let release r =
  let t = table r.space in
  t := Array.of_list (List.filter (fun o -> o != r) (Array.to_list !t))

let find space addr =
  let a = !(table space) in
  let i = count_below a addr 0 (Array.length a) - 1 in
  if i >= 0 && addr < a.(i).base + a.(i).len then a.(i)
  else
    Panic.bug "%s access to unclaimed address %#x"
      (match space with Port -> "port" | Mmio -> "MMIO")
      addr

let charge = function
  | Port -> Clock.consume Cost.current.port_io_ns
  | Mmio -> Clock.consume Cost.current.mmio_ns

let site_of = function Port -> "io.port" | Mmio -> "io.mmio"

let read space addr width =
  let r = find space addr in
  charge space;
  let v = r.read (addr - r.base) width in
  Faultinject.filter_read ~site:(site_of space) ~addr v
  land ((1 lsl (8 * bytes_of_width width)) - 1)

let write space addr width v =
  let r = find space addr in
  charge space;
  r.write (addr - r.base) width (v land ((1 lsl (8 * bytes_of_width width)) - 1))

let inb p = read Port p W8
let inw p = read Port p W16
let inl p = read Port p W32
let outb p v = write Port p W8 v
let outw p v = write Port p W16 v
let outl p v = write Port p W32 v
let readb a = read Mmio a W8
let readl a = read Mmio a W32
let writel a v = write Mmio a W32 v

let reset () =
  ports := [||];
  mmio := [||]
