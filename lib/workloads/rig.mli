(** The evaluation machine the paper's Table 3 runs on: each of the five
    drivers' devices at fixed resources, the e1000 fleet ports, the
    interface bring-up and each device's short traffic slice. Every
    experiment, both campaigns and the soak plug their devices here.

    Layout: 8139too at 00:04.0 (io 0xc000, irq 10, 100 Mb/s link),
    e1000 at 00:05.0 (mmio 0xf000_0000, irq 11, 1 Gb/s link), ens1371
    at 00:06.0 (io 0xd000, irq 9), uhci-hcd at io 0xe000 (irq 5), and
    the psmouse on the i8042 (ports 0x60/0x64, irq 12). Fleet port [i]
    is an e1000 at slot [%02x:00.0], mmio [0xe000_0000 + i * 0x20000],
    irq [32 + i], MAC 02:00:00:00:hi:lo, on its own 1 Gb/s link. *)

val mac : string
(** The MAC of the 8139too and the classic e1000. *)

val base : string -> int
(** The io or mmio base of the named driver's device. *)

val irq : string -> int
(** The irq line of the named driver's device. *)

val port_slot : int -> string
val port_irq : int -> int

(** {2 Plugging} Each call creates the device model and puts it on the
    bus; call after {!Decaf_kernel.Boot.boot}, before the driver binds. *)

type t
(** A plugged device of one of the five drivers. *)

val plug : string -> t
(** Plug the named driver's device. Raises [Invalid_argument] for a
    name that is not one of the five. *)

val name : t -> string
(** The driver's registry name. *)

val plug_8139too : unit -> Decaf_hw.Link.t

val plug_e1000 : ?port:int -> unit -> Decaf_hw.Link.t
(** The classic e1000, or fleet port [port]. *)

val plug_ens1371 : unit -> Decaf_hw.Ens1371_hw.t
val plug_uhci : unit -> Decaf_hw.Uhci_hw.t
val plug_psmouse : unit -> Decaf_hw.Psmouse_hw.t

val unplug : string -> unit
(** Surprise-remove the named driver's PCI device (8139too, e1000 or
    ens1371) from the bus, if it is there; nothing comes back. *)

val replug_e1000 : ?port:int -> ?gap_ns:int -> unit -> unit
(** Surprise-remove the classic e1000 (or fleet port [port]), sleep
    [gap_ns] (default none) and plug a fresh PCI function back at the
    same resources. An empty slot is a driver fault (ENODEV). Must run
    in a scheduler thread. *)

(** {2 Bring-up and traffic} These run in a scheduler thread and
    re-fetch the driver's active instance at each use, since restarts
    and replugs bind new ones. *)

val ok : string -> ('a, int) result -> 'a
(** [Error rc] becomes the driver fault [what] with errno [-rc]
    ({!Decaf_runtime.Errors.throw}): a supervisor restarts the driver,
    an unsupervised run stops. *)

val up : t -> unit
(** [ifconfig up] on a NIC; nothing for the other devices. *)

(** The workloads, on the device's active instance. Each raises
    [Invalid_argument] on a device of the wrong kind. *)

val netperf :
  ?recv:bool -> ?msg_bytes:int -> t -> duration_ns:int -> Netperf.result
(** A netperf send (default) or receive of [msg_bytes] (default 1500)
    messages. *)

val play : t -> duration_ns:int -> Mpg123.result
val move : t -> duration_ns:int -> Mouse_move.result

val untar : ?files:int -> ?file_bytes:int -> t -> Tar_usb.result
(** Untar [files] (default 1) files of [file_bytes] (default 4096). *)

val slice : ?duration_ns:int -> t -> unit
(** A short stretch of the device's workload: a 1500-byte netperf send
    (default 2 ms), mpg123 playback or mouse movement (default 20 ms
    each). uhci-hcd untars one 4 KB file, whatever [duration_ns]. *)
