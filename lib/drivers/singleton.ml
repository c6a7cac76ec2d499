module K = Decaf_kernel
module Errors = Decaf_runtime.Errors

module type DRIVER = sig
  type adapter

  val name : string
  val module_name : string
  val bus : K.Hotplug.bus
  val probe : Driver_env.t -> (adapter, int) result
  val exit : adapter -> unit
  val suspend : adapter -> unit
  val resume : adapter -> unit
  val owns : adapter -> string -> bool
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
  let probe env ~dev:_ =
    if K.Modules.is_loaded D.module_name then Error (-Errors.ebusy)
    else
      let adapter = ref None in
      let init () = Result.map (fun a -> adapter := Some a) (D.probe env) in
      let exit () = Option.iter D.exit !adapter in
      let loaded = K.Modules.insmod ~name:D.module_name ~init ~exit in
      match (loaded, !adapter) with
      | Ok handle, Some adapter ->
          let t = { adapter; module_handle = Some handle } in
          active_box := Some t;
          Ok t
      | Ok _, None -> Error (-Errors.enodev)
      | Error rc, _ -> Error rc

  let remove t =
    Option.iter K.Modules.rmmod t.module_handle;
    t.module_handle <- None;
    match !active_box with Some t' when t' == t -> active_box := None | _ -> ()

  let packed =
    Driver_core.Pack
      (module struct
        type nonrec t = t

        let name = D.name
        let bus = D.bus
        let ids = []
        let probe = probe
        let remove = remove
        let suspend t = D.suspend t.adapter
        let resume t = D.resume t.adapter
        let owns t id = D.owns t.adapter id

        let init_latency_ns t =
          match t.module_handle with
          | Some h -> K.Modules.init_latency_ns h
          | None -> 0
      end)
end
