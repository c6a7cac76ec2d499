(** The PCI bus: device enumeration, config space, and driver binding. *)

type bar_kind = Port_bar | Mmio_bar

type bar = { kind : bar_kind; base : int; len : int }

type dev
(** A PCI function plugged into the simulated bus. *)

type id = { id_vendor : int; id_device : int }

val make_dev :
  slot:string ->
  vendor:int ->
  device:int ->
  irq_line:int ->
  bars:bar list ->
  unit ->
  dev

val add_device : dev -> unit
(** Plug the device in; a matching registered driver is probed
    immediately. *)

val remove_device : dev -> unit
(** Unplug; the bound driver's [remove] runs first. *)

val register_driver :
  name:string ->
  ids:id list ->
  probe:(dev -> (unit, int) result) ->
  remove:(dev -> unit) ->
  unit
(** Register a driver; it is probed against every unbound device already
    on the bus. A probe returning [Error errno] leaves the device
    unbound. *)

val rescan : ?slot:string -> unit -> unit
(** Probe every registered driver against every still-unbound device —
    how a driver module already on the bus binds one more device
    (multi-instance insmod). [slot] restricts the scan to one device. *)

val detach : slot:string -> unit
(** Unbind (calling the driver's [remove]) the device in [slot] without
    unplugging it — the per-instance rmmod path. No-op when the slot is
    empty or unbound. *)

val unregister_driver : string -> unit
(** Unbind (calling [remove]) from every device bound to the driver. *)

val slot : dev -> string
val vendor : dev -> int
val device_id : dev -> int
val irq : dev -> int
val bar : dev -> int -> bar
val bound_driver : dev -> string option

val enable_device : dev -> unit
val is_enabled : dev -> bool
val set_master : dev -> unit

val read_config8 : dev -> int -> int
val read_config16 : dev -> int -> int
val read_config32 : dev -> int -> int
val write_config32 : dev -> int -> int -> unit

val config_space_words : dev -> int array
(** The 64 dwords of config space — the [config_space] array the E1000
    driver saves and restores, marshaled across domains in the paper's
    Figure 3. *)

val devices : unit -> dev list
val reset : unit -> unit
