module K = Decaf_kernel
module Errors = Decaf_runtime.Errors

module type DRIVER = sig
  type adapter

  val name : string
  val ids : (int * int) list
  val slot : adapter -> string
  val probe : Driver_env.t -> K.Pci.dev -> (adapter, int) result
  val unbind : adapter -> unit
  val quiesce : adapter -> unit
  val unloaded : unit -> unit
  val suspend : adapter -> unit
  val resume : adapter -> unit
end

module Make (D : DRIVER) = struct
  type t = {
    adapter : D.adapter;
    mutable module_handle : K.Modules.handle option;
  }

  (* Every bound instance by the PCI slot it claimed, from its probe
     until its device is released. *)
  let instances : (string, t) Hashtbl.t = Hashtbl.create 4

  (* PCI-core unbind path, shared by detach (per-instance rmmod) and
     unregister (module unload). *)
  let release slot =
    (match Hashtbl.find_opt instances slot with
    | Some t -> D.unbind t.adapter
    | None -> ());
    Hashtbl.remove instances slot

  let pci_remove pci = release (K.Pci.slot pci)

  let active_box : t option ref = ref None
  let active () = !active_box

  (* One K.Modules load serves every instance: the module is refcounted
     and only really unloaded when its last binding goes. *)
  let load : (K.Modules.handle * int ref) option ref = ref None

  let live_load () =
    match !load with
    | Some _ when not (K.Modules.is_loaded D.name) ->
        load := None;
        None
    | l -> l

  (* The PCI probe callback outlives any single bind (it is registered
     once per module load), so the env and device filter for the binding
     currently being created travel through this box: only the probe the
     caller asked for claims a device; auto-probes of other matching
     devices on the bus are refused and left for their own bind. *)
  type bind = Driver_env.t * string option * t option ref

  let pending : bind option ref = ref None

  (* Power-on state: no binding, module load or pending bind outlives
     the machine it was made on. *)
  let () =
    K.Boot.on_reset @@ fun () ->
    Hashtbl.reset instances;
    active_box := None;
    load := None;
    pending := None

  let pci_probe pci =
    match !pending with
    | Some (env, want, out)
      when !out = None
           && (match want with None -> true | Some s -> s = K.Pci.slot pci) -> (
        match D.probe env pci with
        | Ok adapter ->
            let t = { adapter; module_handle = None } in
            out := Some t;
            Hashtbl.replace instances (K.Pci.slot pci) t;
            Ok ()
        | Error rc -> Error rc)
    | _ -> Error (-Errors.enodev)

  (* The PCI id table, built once: every module load registers it. *)
  let pci_ids =
    List.map (fun (v, d) -> { K.Pci.id_vendor = v; id_device = d }) D.ids

  let attach env (handle, refs) t =
    incr refs;
    t.module_handle <- Some handle;
    (* [active] keeps meaning "the first instance": only the registry's
       instance 0, whose binding id is the bare name, claims the box *)
    if env.Driver_env.scope = D.name && !active_box = None then
      active_box := Some t;
    Ok t

  (* Load the module, or bind one more device when it is loaded already;
     [dev] pins the bind to one PCI slot. *)
  let probe env ~dev =
    let out = ref None in
    pending := Some (env, dev, out);
    (* the box must not outlive this bind even when a supervised probe
       fault unwinds through here, or a later unrelated device add could
       claim a stale env *)
    Fun.protect ~finally:(fun () -> pending := None) @@ fun () ->
    match live_load () with
    | Some l -> (
        (* module already loaded: bind one more device to it *)
        K.Pci.rescan ?slot:dev ();
        match !out with
        | Some t -> attach env l t
        | None -> Error (-Errors.enodev))
    | None -> (
        let init () =
          (* a failed or faulting load must leave the PCI core clean so a
             supervisor retry can register the driver again *)
          let register () =
            K.Pci.register_driver ~name:D.name ~ids:pci_ids ~probe:pci_probe
              ~remove:pci_remove
          in
          (match register () with
          | () -> ()
          | exception e ->
              K.Pci.unregister_driver D.name;
              raise e);
          match !out with
          | Some _ -> Ok ()
          | None ->
              K.Pci.unregister_driver D.name;
              Error (-Errors.enodev)
        in
        let exit () = K.Pci.unregister_driver D.name in
        match K.Modules.insmod ~name:D.name ~init ~exit with
        | Ok handle -> (
            match !out with
            | Some t ->
                let l = (handle, ref 0) in
                load := Some l;
                attach env l t
            | None -> Error (-Errors.enodev))
        | Error rc -> Error rc)

  let remove t =
    (match t.module_handle with
    | Some h -> (
        D.quiesce t.adapter;
        (* release this binding's device only; siblings keep running *)
        let slot = D.slot t.adapter in
        K.Pci.detach ~slot;
        (* detach finds nothing when the device left the bus while its
           probe ran, since the PCI core never bound it *)
        (match Hashtbl.find_opt instances slot with
        | Some t' when t' == t -> release slot
        | _ -> ());
        t.module_handle <- None;
        match live_load () with
        | Some (h', refs) when h' == h ->
            decr refs;
            if !refs <= 0 then begin
              K.Modules.rmmod h;
              load := None;
              D.unloaded ()
            end
        | _ -> ())
    | None -> ());
    match !active_box with Some t' when t' == t -> active_box := None | _ -> ()

  let at ~slot = Hashtbl.find_opt instances slot

  let packed =
    Driver_core.Pack
      (module struct
        type nonrec t = t

        let name = D.name
        let bus = K.Hotplug.Pci
        let ids = D.ids
        let probe = probe
        let remove = remove
        let suspend t = D.suspend t.adapter
        let resume t = D.resume t.adapter
        let owns t slot = D.slot t.adapter = slot

        let init_latency_ns t =
          match t.module_handle with
          | Some h -> K.Modules.init_latency_ns h
          | None -> 0
      end)
end
