(** Bus hotplug events.

    The PCI, USB and input bus cores announce device arrival and removal
    here; interested parties (the driver registry in [Decaf_drivers])
    subscribe and route the events to probe/remove. Removal events are
    published {e before} the bus unbinds the device so a subscriber can
    drain in-flight work — XPC crossings, batched notifications — while
    the driver is still bound. *)

type bus = Pci | Usb | Input

type event =
  | Device_added of { bus : bus; id : string; vendor : int; device : int }
  | Device_removed of { bus : bus; id : string }

val subscribe : (event -> unit) -> unit
(** Handlers run synchronously, in publication order, in the publishing
    thread. Subscriptions last until the next {!reset} (each kernel boot
    starts with no subscribers). *)

val publish : event -> unit

val reset : unit -> unit
