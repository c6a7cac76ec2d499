module K = Decaf_kernel
module Errors = Decaf_runtime.Errors

module type DRIVER = sig
  type adapter

  val name : string
  val ids : (int * int) list
  val scope : adapter -> string
  val slot : adapter -> string
  val probe : Driver_env.t -> K.Pci.dev -> (adapter, int) result
  val unbind : adapter -> unit
  val quiesce : adapter -> unit
  val unloaded : unit -> unit
end

module Make (D : DRIVER) = struct
  type t = {
    adapter : D.adapter;
    mutable module_handle : K.Modules.handle option;
  }

  let instances : (string, D.adapter) Hashtbl.t = Hashtbl.create 4

  (* PCI-core unbind path, shared by detach (per-instance rmmod) and
     unregister (module unload). *)
  let remove pci =
    Option.iter D.unbind (Hashtbl.find_opt instances (K.Pci.slot pci));
    Hashtbl.remove instances (K.Pci.slot pci)

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

  (* The PCI probe callback outlives any single insmod (it is registered
     once per module load), so the env and device filter for the binding
     currently being created travel through this box: only the probe the
     caller asked for claims a device; auto-probes of other matching
     devices on the bus are refused and left for their own bind. *)
  type bind = Driver_env.t * string option * D.adapter option ref

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
        | Ok a ->
            out := Some a;
            Hashtbl.replace instances (K.Pci.slot pci) a;
            Ok ()
        | Error rc -> Error rc)
    | _ -> Error (-Errors.enodev)

  (* The PCI id table, built once: every module load registers it. *)
  let pci_ids =
    List.map (fun (v, d) -> { K.Pci.id_vendor = v; id_device = d }) D.ids

  let insmod ?dev env =
    let out = ref None in
    pending := Some (env, dev, out);
    (* the box must not outlive this bind even when a supervised probe
       fault unwinds through here, or a later unrelated device add could
       claim a stale env *)
    Fun.protect ~finally:(fun () -> pending := None) @@ fun () ->
    let wrap (handle, refs) adapter =
      incr refs;
      let t = { adapter; module_handle = Some handle } in
      (* [active] keeps meaning "the first instance": only a bare-scoped
         (singleton or registry-instance-0) bind claims the box *)
      if D.scope adapter = D.name && !active_box = None then
        active_box := Some t;
      Ok t
    in
    match live_load () with
    | Some l -> (
        (* module already loaded: bind one more device to it *)
        K.Pci.rescan ?slot:dev ();
        match !out with
        | Some adapter -> wrap l adapter
        | None -> Error (-Errors.enodev))
    | None -> (
        let init () =
          (* a failed or faulting load must leave the PCI core clean so a
             supervisor retry can register the driver again *)
          let register () =
            K.Pci.register_driver ~name:D.name ~ids:pci_ids ~probe:pci_probe
              ~remove
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
            | Some adapter ->
                let l = (handle, ref 0) in
                load := Some l;
                wrap l adapter
            | None -> Error (-Errors.enodev))
        | Error rc -> Error rc)

  let rmmod t =
    (match t.module_handle with
    | Some h -> (
        D.quiesce t.adapter;
        (* release this binding's device only; siblings keep running *)
        K.Pci.detach ~slot:(D.slot t.adapter);
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

  let init_latency_ns t =
    match t.module_handle with Some h -> K.Modules.init_latency_ns h | None -> 0

  let adapter_at ~slot = Hashtbl.find_opt instances slot
end
