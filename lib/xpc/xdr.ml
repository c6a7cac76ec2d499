exception Decode_error of string

let pad4 n = (n + 3) land lnot 3

module Enc = struct
  type t = Buffer.t

  let create () = Buffer.create 256
  let clear = Buffer.clear

  let uint b v =
    if v < 0 || v > 0xffff_ffff then
      invalid_arg (Printf.sprintf "Xdr.Enc.uint: %d out of range" v);
    Buffer.add_uint8 b ((v lsr 24) land 0xff);
    Buffer.add_uint8 b ((v lsr 16) land 0xff);
    Buffer.add_uint8 b ((v lsr 8) land 0xff);
    Buffer.add_uint8 b (v land 0xff)

  let int b v =
    if v < -0x8000_0000 || v > 0x7fff_ffff then
      invalid_arg (Printf.sprintf "Xdr.Enc.int: %d out of range" v);
    uint b (v land 0xffff_ffff)

  let hyper b v =
    uint b (Int64.to_int (Int64.shift_right_logical v 32));
    uint b (Int64.to_int (Int64.logand v 0xffff_ffffL))

  let bool b v = uint b (if v then 1 else 0)
  let double b v = hyper b (Int64.bits_of_float v)

  let opaque_fixed b data =
    Buffer.add_bytes b data;
    for _ = Bytes.length data to pad4 (Bytes.length data) - 1 do
      Buffer.add_uint8 b 0
    done

  let opaque_var b data =
    uint b (Bytes.length data);
    opaque_fixed b data

  let string b s = opaque_var b (Bytes.of_string s)

  let option b enc = function
    | Some v ->
        bool b true;
        enc b v
    | None -> bool b false

  let array_fixed b enc a = Array.iter (enc b) a

  let array_var b enc a =
    uint b (Array.length a);
    array_fixed b enc a

  let size = Buffer.length
  let to_bytes = Buffer.to_bytes
end

module Dec = struct
  type t = { data : bytes; mutable pos : int }

  let of_bytes data = { data; pos = 0 }

  let need d n =
    if d.pos + n > Bytes.length d.data then
      raise
        (Decode_error
           (Printf.sprintf "truncated: need %d bytes at offset %d of %d" n
              d.pos (Bytes.length d.data)))

  let uint d =
    need d 4;
    let byte i = Bytes.get_uint8 d.data (d.pos + i) in
    let v = (byte 0 lsl 24) lor (byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3 in
    d.pos <- d.pos + 4;
    v

  let int d =
    let v = uint d in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  let hyper d =
    let hi = uint d in
    let lo = uint d in
    Int64.logor
      (Int64.shift_left (Int64.of_int hi) 32)
      (Int64.of_int lo)

  let bool d =
    match uint d with
    | 0 -> false
    | 1 -> true
    | n -> raise (Decode_error (Printf.sprintf "bad boolean %d" n))

  let double d = Int64.float_of_bits (hyper d)

  let opaque_fixed d n =
    need d (pad4 n);
    let data = Bytes.sub d.data d.pos n in
    d.pos <- d.pos + pad4 n;
    data

  let opaque_var d =
    let n = uint d in
    opaque_fixed d n

  let string d = Bytes.to_string (opaque_var d)

  let option d dec = if bool d then Some (dec d) else None

  (* Every XDR item occupies at least 4 bytes, so a claimed element count
     larger than remaining/4 cannot be satisfied: reject it before
     allocating (a hostile length word must not drive allocation). *)
  let check_count d n =
    if n < 0 || n > (Bytes.length d.data - d.pos) / 4 then
      raise
        (Decode_error
           (Printf.sprintf "element count %d exceeds remaining input" n))

  let array_fixed d dec n =
    check_count d n;
    Array.init n (fun _ -> dec d)

  let array_var d dec =
    let n = uint d in
    array_fixed d dec n

  let pos d = d.pos
  let remaining d = Bytes.length d.data - d.pos

  let check_drained d =
    if remaining d <> 0 then
      raise (Decode_error (Printf.sprintf "%d bytes left over" (remaining d)))
end
