module Skb = struct
  type t = { data : Bytes.t; len : int }

  let alloc len = { data = Bytes.make len '\000'; len }
  let of_bytes data = { data; len = Bytes.length data }
end

type stats = {
  mutable rx_packets : int;
  mutable rx_bytes : int;
  mutable rx_errors : int;
  mutable rx_dropped : int;
  mutable tx_packets : int;
  mutable tx_bytes : int;
  mutable tx_errors : int;
  mutable tx_dropped : int;
}

type xmit_result = Xmit_ok | Xmit_busy

type ops = {
  ndo_open : unit -> (unit, int) result;
  ndo_stop : unit -> (unit, int) result;
  ndo_start_xmit : Skb.t -> xmit_result;
  ndo_tx_timeout : unit -> unit;
}

type t = {
  name : string;
  mtu : int;
  ops : ops;
  stats : stats;
  mutable up : bool;
  mutable tx_stopped : bool;
  mutable carrier : bool;
  mutable rx_handler : (Skb.t -> unit) option;
}

(* Registered devices by name, so naming, the duplicate check and
   lookup cost one probe each rather than a scan of a fleet-sized
   registry. *)
let registry : (string, t) Hashtbl.t = Hashtbl.create 64

let create ~name ~mtu ops =
  {
    name;
    mtu;
    ops;
    stats =
      {
        rx_packets = 0;
        rx_bytes = 0;
        rx_errors = 0;
        rx_dropped = 0;
        tx_packets = 0;
        tx_bytes = 0;
        tx_errors = 0;
        tx_dropped = 0;
      };
    up = false;
    tx_stopped = true;
    carrier = false;
    rx_handler = None;
  }

(* Per prefix, a lowest-free cursor: every "<prefix><n>" with [n] below
   it is registered, so naming resumes there instead of formatting and
   probing eth0, eth1, ... again. Unregistering such a name moves the
   cursor back to it, so the lowest free index still wins. *)
let cursors : (string, int ref) Hashtbl.t = Hashtbl.create 4

let alloc_name prefix =
  let cursor =
    match Hashtbl.find_opt cursors prefix with
    | Some c -> c
    | None ->
        let c = ref 0 in
        Hashtbl.replace cursors prefix c;
        c
  in
  let rec scan n =
    let candidate = prefix ^ string_of_int n in
    if Hashtbl.mem registry candidate then scan (n + 1)
    else begin
      cursor := n;
      candidate
    end
  in
  scan !cursor

let name d = d.name
let mtu d = d.mtu
let stats d = d.stats

let register_netdev d =
  if Hashtbl.mem registry d.name then
    Panic.bug "netdev %s already registered" d.name;
  Hashtbl.replace registry d.name d;
  Klog.printk Klog.Info "net %s: registered" d.name

let unregister_netdev d =
  match Hashtbl.find_opt registry d.name with
  | Some o when o == d ->
      Hashtbl.remove registry d.name;
      let len = String.length d.name in
      Hashtbl.iter
        (fun prefix cursor ->
          let p = String.length prefix in
          if String.starts_with ~prefix d.name then
            match int_of_string_opt (String.sub d.name p (len - p)) with
            | Some n when n >= 0 -> cursor := Int.min !cursor n
            | _ -> ())
        cursors
  | _ -> ()

let lookup name = Hashtbl.find_opt registry name

let open_dev d =
  match d.ops.ndo_open () with
  | Ok () ->
      d.up <- true;
      Ok ()
  | Error _ as e -> e

let stop_dev d =
  let r = d.ops.ndo_stop () in
  d.up <- false;
  r

let is_up d = d.up

let dev_queue_xmit d skb =
  if (not d.up) || d.tx_stopped then Xmit_busy else d.ops.ndo_start_xmit skb

let netif_rx d skb =
  d.stats.rx_packets <- d.stats.rx_packets + 1;
  d.stats.rx_bytes <- d.stats.rx_bytes + skb.Skb.len;
  match d.rx_handler with Some f -> f skb | None -> ()

let set_rx_handler d f = d.rx_handler <- Some f
let netif_stop_queue d = d.tx_stopped <- true
let netif_wake_queue d = d.tx_stopped <- false
let netif_queue_stopped d = d.tx_stopped
let netif_carrier_on d = d.carrier <- true
let netif_carrier_off d = d.carrier <- false
let reset () =
  Hashtbl.reset registry;
  Hashtbl.reset cursors
