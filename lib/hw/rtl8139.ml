module K = Decaf_kernel
module Io = K.Io

let idr0 = 0x00
let tsd0 = 0x10
let tsad0 = 0x20
let rbstart = 0x30
let cmd = 0x37
let capr = 0x38
let imr = 0x3c
let isr = 0x3e
let tcr = 0x40
let rcr = 0x44
let config1 = 0x52
let cmd_rst = 0x10
let cmd_re = 0x08
let cmd_te = 0x04
let cmd_bufe = 0x01
let isr_rok = 0x0001
let isr_tok = 0x0004
let isr_rx_overflow = 0x0010
let n_tx_desc = 4
let tsd_own = 0x2000
let tsd_tok = 0x8000
let rx_fifo_max = 64
let net_tx = K.Latency.path "net.tx"
let unstaged = -1 (* no birth: births are [Clock.now ()], never negative *)

type t = {
  irq_line : int;
  mac : string;
  link : Link.t;
  phy : Phy.t;
  mutable region : Io.region option;
  tsd : int array;
  tsad : int array;
  tx_staged : bytes array;  (** per descriptor, [Bytes.empty] when unstaged *)
  tx_born : int array;
      (* each staged frame's xmit-stage birth ([unstaged] when none),
         completed when the frame finishes serializing onto the wire *)
  mutable tx_done : (int -> unit) array;
      (* per descriptor, its write-back: built once, handed to the link *)
  rx_fifo : unit Frameq.t;
      (* each received frame's stamp is its wire-arrival birth; the
         driver completes it when the packet reaches netif_rx *)
  mutable command : int;
  mutable mask : int;
  mutable status : int;
  mutable rbstart_v : int;
  mutable capr_v : int;
  mutable tcr_v : int;
  mutable rcr_v : int;
  mutable tx_count : int;
  mutable rx_count : int;
}


let update_irq t = if t.status land t.mask <> 0 then K.Irq.raise_irq t.irq_line

let assert_status t bits =
  t.status <- t.status lor bits;
  update_irq t

let do_reset t =
  t.command <- cmd_bufe;
  t.mask <- 0;
  t.status <- 0;
  Frameq.clear t.rx_fifo;
  Array.fill t.tsd 0 n_tx_desc tsd_own;
  Array.fill t.tx_staged 0 n_tx_desc Bytes.empty;
  Array.fill t.tx_born 0 n_tx_desc unstaged

(* Descriptor [n]'s frame has left the wire: write the descriptor back. *)
let tx_done t n born =
  t.tsd.(n) <- t.tsd.(n) lor tsd_own lor tsd_tok;
  K.Clock.complete_since net_tx born;
  assert_status t isr_tok

let transmit t n size =
  let frame = t.tx_staged.(n) and born = t.tx_born.(n) in
  if born <> unstaged && Bytes.length frame >= size then begin
    (* the TSD size says how much of the staged buffer goes out *)
    let frame =
      if Bytes.length frame = size then frame else Bytes.sub frame 0 size
    in
    t.tx_staged.(n) <- Bytes.empty;
    t.tx_born.(n) <- unstaged;
    t.tx_count <- t.tx_count + 1;
    (* the descriptor completes when the frame leaves the wire *)
    Link.transmit t.link ~on_done:t.tx_done.(n) ~stamp:born frame
  end
  else
    (* Descriptor fired without (enough) staged data: transmit abort. *)
    t.tsd.(n) <- t.tsd.(n) lor tsd_own

let read t off (width : Io.width) =
  match off with
  | _ when off >= idr0 && off < idr0 + 6 -> Char.code t.mac.[off - idr0]
  | _ when off >= tsd0 && off < tsd0 + (4 * n_tx_desc) && (off - tsd0) mod 4 = 0
    ->
      t.tsd.((off - tsd0) / 4)
  | _ when off >= tsad0 && off < tsad0 + (4 * n_tx_desc) && (off - tsad0) mod 4 = 0
    ->
      t.tsad.((off - tsad0) / 4)
  | _ when off = rbstart -> t.rbstart_v
  | _ when off = cmd ->
      let bufe = if Frameq.is_empty t.rx_fifo then cmd_bufe else 0 in
      t.command land lnot cmd_bufe lor bufe
  | _ when off = capr -> t.capr_v
  | _ when off = imr -> t.mask
  | _ when off = isr -> t.status
  | _ when off = tcr -> t.tcr_v
  | _ when off = rcr -> t.rcr_v
  | _ when off = config1 -> 0
  | _ ->
      ignore width;
      0

let write t off (width : Io.width) v =
  ignore width;
  match off with
  | _ when off >= tsd0 && off < tsd0 + (4 * n_tx_desc) && (off - tsd0) mod 4 = 0
    ->
      let n = (off - tsd0) / 4 in
      t.tsd.(n) <- v;
      if v land tsd_own = 0 && t.command land cmd_te <> 0 then
        transmit t n (v land 0x1fff)
  | _ when off >= tsad0 && off < tsad0 + (4 * n_tx_desc) && (off - tsad0) mod 4 = 0
    ->
      t.tsad.((off - tsad0) / 4) <- v
  | _ when off = rbstart -> t.rbstart_v <- v
  | _ when off = cmd ->
      if v land cmd_rst <> 0 then do_reset t
      else t.command <- v land (cmd_re lor cmd_te)
  | _ when off = capr -> t.capr_v <- v land 0xffff
  | _ when off = imr ->
      t.mask <- v land 0xffff;
      update_irq t
  | _ when off = isr ->
      (* write-1-to-clear *)
      t.status <- t.status land lnot (v land 0xffff)
  | _ when off = tcr -> t.tcr_v <- v
  | _ when off = rcr -> t.rcr_v <- v
  | _ -> ()

let on_rx t frame =
  if t.command land cmd_re <> 0 then
    if Frameq.length t.rx_fifo >= rx_fifo_max then
      assert_status t isr_rx_overflow
    else begin
      Frameq.push t.rx_fifo frame (K.Clock.now ()) ();
      t.rx_count <- t.rx_count + 1;
      assert_status t isr_rok
    end

let create ~io_base ~irq ~mac ~link =
  if String.length mac <> 6 then invalid_arg "Rtl8139.create: bad MAC";
  let t =
      {
        irq_line = irq;
        mac;
        link;
        phy = Phy.create ();
        region = None;
        tsd = Array.make n_tx_desc tsd_own;
        tsad = Array.make n_tx_desc 0;
        tx_staged = Array.make n_tx_desc Bytes.empty;
        tx_born = Array.make n_tx_desc unstaged;
        tx_done = [||];
        rx_fifo = Frameq.create ();
        command = cmd_bufe;
        mask = 0;
        status = 0;
        rbstart_v = 0;
        capr_v = 0;
        tcr_v = 0;
        rcr_v = 0;
        tx_count = 0;
        rx_count = 0;
      }
  in
  t.tx_done <- Array.init n_tx_desc (tx_done t);
  t.region <-
    Some
      (Io.register_ports ~base:io_base ~len:0x100
         ~read:(fun off w -> read t off w)
         ~write:(fun off w v -> write t off w v));
  Link.connect link ~nic_rx:(on_rx t);
  t

let destroy t = Option.iter Io.release t.region
let stage_tx_buffer t n frame =
  t.tx_staged.(n) <- frame;
  t.tx_born.(n) <- K.Clock.now ()

let rx_ring t = t.rx_fifo
let rx_pending t = Frameq.length t.rx_fifo
let phy t = t.phy
let tx_count t = t.tx_count
let rx_count t = t.rx_count
