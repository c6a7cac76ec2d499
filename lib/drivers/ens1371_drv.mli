(** The ens1371 (Ensoniq AudioPCI) sound driver, native and decaf.

    The period interrupt and the DMA feed stay in the kernel; codec and
    sample-rate-converter programming, mixer-control registration, and
    the PCM callbacks run in the decaf driver. Registering the card with
    the kernel sound library from user level goes through the Jeannie
    stub for [snd_card_register] — the paper's Figure 2. *)

type t

val vendor_id : int
val device_id : int

val setup_device :
  slot:string -> io_base:int -> irq:int -> unit -> Decaf_hw.Ens1371_hw.t

val packed : Driver_core.packed
(** For {!Driver_core.register}: registry name ["ens1371"], the single
    (1274, 1371) id ({!Pci_family}). *)

val substream : t -> Decaf_kernel.Sndcore.substream
val card : t -> Decaf_kernel.Sndcore.card

val adapter_wire_bytes : int

val active : unit -> t option
(** Binding ["ens1371"]'s instance ({!Pci_family.Make.active}). *)
