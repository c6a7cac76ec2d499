let all () =
  [
    Rtl8139_drv.packed;
    E1000_drv.packed;
    Ens1371_drv.packed;
    Uhci_drv.packed;
    Psmouse_drv.packed;
  ]

let names = List.map (fun (Driver_core.Pack (module D)) -> D.name) (all ())
let register_defaults () = List.iter Driver_core.register (all ())
