(** The uhci-hcd USB 1.1 host-controller driver, native and decaf.

    Nearly all of this driver is data path — URB scheduling and frame
    handling that can reach almost any function through the transfer
    descriptor callbacks — so, as in the paper (only 4 % of its
    functions were converted), just the controller bring-up and root-hub
    reset run in the decaf driver. *)

type t

val setup_device : io_base:int -> irq:int -> unit -> Decaf_hw.Uhci_hw.t
(** UHCI is a port-I/O PCI function; for brevity the model attaches
    directly to the I/O ports and IRQ line. *)

val insmod :
  Driver_env.t -> io_base:int -> irq:int -> (t, int) result
(** Load the HCD: resets the controller, resets root port 1 (where the
    flash drive sits), starts the schedule, and registers with
    {!Decaf_kernel.Usbcore}. *)

val rmmod : t -> unit
val init_latency_ns : t -> int
val urbs_completed : t -> int

val active : unit -> t option
(** The instance bound by the most recent successful [insmod], until its
    [rmmod] or the next {!Decaf_kernel.Boot.boot}. *)

val suspend : t -> unit
(** PM suspend: cross to the decaf driver and stop the frame schedule. *)

val resume : t -> unit
(** PM resume: restart the schedule and re-enable interrupts. *)

module Core : Driver_core.DRIVER with type t = t
(** Registry name ["uhci-hcd"] (the campaign/Table-3 row; the kernel
    module itself stays ["uhci_hcd"]). [probe] reuses the resources of
    the last {!setup_device}. *)
