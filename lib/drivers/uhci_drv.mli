(** The uhci-hcd USB 1.1 host-controller driver, native and decaf.

    Nearly all of this driver is data path — URB scheduling and frame
    handling that can reach almost any function through the transfer
    descriptor callbacks — so, as in the paper (only 4 % of its
    functions were converted), just the controller bring-up and root-hub
    reset run in the decaf driver. *)

type t

val setup_device : io_base:int -> irq:int -> unit -> Decaf_hw.Uhci_hw.t
(** UHCI is a port-I/O PCI function; for brevity the model attaches
    directly to the I/O ports and IRQ line. Binds reuse these
    resources. *)

val packed : Driver_core.packed
(** For {!Driver_core.register}: registry name ["uhci-hcd"], module
    ["uhci_hcd"], USB bus ({!Singleton}). A bind resets the controller
    and root port 1 (where the flash drive sits), starts the schedule,
    and registers with {!Decaf_kernel.Usbcore}. *)

val urbs_completed : t -> int

val active : unit -> t option
(** The bound instance ({!Singleton.Make.active}). *)
