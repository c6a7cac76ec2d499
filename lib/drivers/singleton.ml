module K = Decaf_kernel
module Errors = Decaf_runtime.Errors

module type DRIVER = sig
  type adapter

  val name : string
  val exit : adapter -> unit
end

module Make (D : DRIVER) = struct
  type t = {
    adapter : D.adapter;
    mutable module_handle : K.Modules.handle option;
  }

  let active_box : t option ref = ref None
  let active () = !active_box
  let () = K.Boot.on_reset @@ fun () -> active_box := None

  (* One device: a second concurrent bind is refused, not a panic — the
     registry's fleet path probes every driver. *)
  let load probe =
    if K.Modules.is_loaded D.name then Error (-Errors.ebusy)
    else
      let adapter = ref None in
      let init () = Result.map (fun a -> adapter := Some a) (probe ()) in
      let exit () = Option.iter D.exit !adapter in
      let loaded = K.Modules.insmod ~name:D.name ~init ~exit in
      match (loaded, !adapter) with
      | Ok handle, Some adapter ->
          let t = { adapter; module_handle = Some handle } in
          active_box := Some t;
          Ok t
      | Ok _, None -> Error (-Errors.enodev)
      | Error rc, _ -> Error rc

  let rmmod t =
    Option.iter K.Modules.rmmod t.module_handle;
    t.module_handle <- None;
    match !active_box with Some t' when t' == t -> active_box := None | _ -> ()

  let init_latency_ns t =
    match t.module_handle with Some h -> K.Modules.init_latency_ns h | None -> 0
end
