(* Small helpers shared by the test suites. *)

(* Bind the named driver through the registry, the one way to load a
   driver, and hand back its typed instance. *)
let bind name mode active =
  match Decaf_drivers.Driver_core.insmod name ~mode with
  | Ok () -> Option.get (active ())
  | Error rc -> Alcotest.failf "%s insmod failed: %d" name rc

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  if nn = 0 then true
  else
    let rec scan i =
      if i + nn > nh then false
      else if String.sub haystack i nn = needle then true
      else scan (i + 1)
    in
    scan 0

let replace haystack ~needle ~replacement =
  let nh = String.length haystack and nn = String.length needle in
  let buf = Buffer.create nh in
  let rec scan i =
    if i >= nh then ()
    else if i + nn <= nh && String.sub haystack i nn = needle then begin
      Buffer.add_string buf replacement;
      scan (i + nn)
    end
    else begin
      Buffer.add_char buf haystack.[i];
      scan (i + 1)
    end
  in
  scan 0;
  Buffer.contents buf
