module K = Decaf_kernel

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable registrations : int;
  mutable sweeps : int;
  mutable rejected : int;
}

let fresh_stats () =
  { lookups = 0; hits = 0; registrations = 0; sweeps = 0; rejected = 0 }

type weak_entry = { w_get : unit -> Univ.t option }

type handle = int

(* A capability handle names one (address, type) association without
   revealing the address: user level gets the handle, and every inbound
   reference resolves through the shard's handle table — a forged,
   stale (revoked) or cross-type handle is refused and counted instead
   of dereferenced. Layout: slot in the high bits, owning shard in bits
   10..19, the entry's generation tag in bits 0..9. Slots are never
   reused (monotonic per shard) and the generation is bumped when the
   table is cleared, so a handle from before a [clear] stays invalid
   even against a fresh table. *)
type h_entry = { he_addr : int; he_ty : string; he_gen : int }

let gen_bits = 10
let shard_bits = 10
let gen_mask = (1 lsl gen_bits) - 1
let shard_mask = (1 lsl shard_bits) - 1

let encode_handle ~slot ~shard ~gen =
  (slot lsl (gen_bits + shard_bits))
  lor ((shard land shard_mask) lsl gen_bits)
  lor (gen land gen_mask)

let handle_slot h = h lsr (gen_bits + shard_bits)
let handle_shard h = (h lsr gen_bits) land shard_mask
let handle_gen h = h land gen_mask

(* One shard: the former global tracker structure, now guarded by its
   own combolock and counting its own traffic. Addresses hash to shards,
   so lookups touching different objects take different locks. *)
type shard = {
  table : (int * string, Univ.t) Hashtbl.t;
  weak_table : (int * string, weak_entry) Hashtbl.t;
  (* Secondary index: address -> set of type_ids registered there (strong
     or weak). [types_at]/[remove_all] used to fold over both full tables;
     with the index they touch only the handful of types actually at the
     address. Maintained on every (de)registration. *)
  by_addr : (int, (string, unit) Hashtbl.t) Hashtbl.t;
  (* Capability handles issued for this shard's addresses: slot ->
     entry, and per address the (type, slot) pairs live there, for
     idempotent issue and for [remove_all], which revokes an address's
     handles whether or not anything is associated with it (the kernel
     tracker only issues). *)
  handles : (int, h_entry) Hashtbl.t;
  h_at : (int, (string * int) list) Hashtbl.t;
  mutable h_next : int;  (* next slot; starts at 1 (0 is never valid) *)
  mutable h_gen : int;  (* generation tag stamped into new handles *)
  lock : K.Sync.Combolock.t;
  stats : stats;
}

type t = { name : string; shards : shard array; mask : int }

let default_shards = 8

(* Every live tracker, for machine-wide per-shard reporting through
   Channel.stats. Cleared on boot, before the runtime's own reset
   recreates its trackers. *)
let registry : t list ref = ref []
let () = K.Boot.on_reset (fun () -> registry := [])

let create ?(name = "objtracker") ?(shards = default_shards) () =
  let n =
    (* round up to a power of two so [land mask] is a uniform hash *)
    let rec pow2 p = if p >= shards then p else pow2 (p * 2) in
    pow2 1
  in
  let t =
    {
      name;
      shards =
        Array.init n (fun i ->
            {
              table = Hashtbl.create 16;
              weak_table = Hashtbl.create 8;
              by_addr = Hashtbl.create 16;
              handles = Hashtbl.create 8;
              h_at = Hashtbl.create 8;
              h_next = 1;
              h_gen = 0;
              lock =
                K.Sync.Combolock.create
                  ~name:(Printf.sprintf "%s/shard%d" name i)
                  ();
              stats = fresh_stats ();
            });
      mask = n - 1;
    }
  in
  registry := t :: !registry;
  t

let shard_of t ~addr = t.shards.(Hashtbl.hash addr land t.mask)
let shard_count t = Array.length t.shards

(* Shard critical sections. User-level callers take the semaphore path
   (flipping the combolock so kernel threads block instead of spinning);
   kernel callers spin. Atomic context cannot block, and on this
   single-CPU machine it also cannot overlap a user-level critical
   section, so it runs unlocked. The lock's base cost is charged to the
   serving dispatch lane along with the lookup cost itself. *)
let locked sh f =
  if K.Sched.in_interrupt () || K.Sched.spin_depth () > 0 then f ()
  else if Domain.is_user (Domain.current ()) then begin
    Dispatch.note K.Cost.current.semaphore_ns;
    K.Sync.Combolock.with_user sh.lock f
  end
  else begin
    Dispatch.note K.Cost.current.spinlock_ns;
    K.Sync.Combolock.with_kernel sh.lock f
  end

let index_add sh addr ty =
  let set =
    match Hashtbl.find_opt sh.by_addr addr with
    | Some s -> s
    | None ->
        let s = Hashtbl.create 4 in
        Hashtbl.replace sh.by_addr addr s;
        s
  in
  Hashtbl.replace set ty ()

let index_remove sh addr ty =
  match Hashtbl.find_opt sh.by_addr addr with
  | None -> ()
  | Some set ->
      Hashtbl.remove set ty;
      if Hashtbl.length set = 0 then Hashtbl.remove sh.by_addr addr

let issued_at sh addr =
  Option.value ~default:[] (Hashtbl.find_opt sh.h_at addr)

(* The slot issued for [ty] among an address's (type, slot) pairs. *)
let rec slot_for ty = function
  | [] -> None
  | (t, slot) :: rest ->
      if String.equal t ty then Some slot else slot_for ty rest

(* Revoke the capability handle (if any) issued for (addr, ty): after
   the association is gone, a replayed handle must reject as stale. *)
let revoke sh addr ty =
  let issued = issued_at sh addr in
  match slot_for ty issued with
  | None -> ()
  | Some slot -> (
      Hashtbl.remove sh.handles slot;
      match List.filter (fun (t, _) -> not (String.equal t ty)) issued with
      | [] -> Hashtbl.remove sh.h_at addr
      | rest -> Hashtbl.replace sh.h_at addr rest)

(* --- capability handles --- *)

let issue t ~addr ~type_id =
  let i = Hashtbl.hash addr land t.mask in
  let sh = t.shards.(i) in
  locked sh (fun () ->
      let issued = issued_at sh addr in
      match slot_for type_id issued with
      | Some slot ->
          let e = Hashtbl.find sh.handles slot in
          encode_handle ~slot ~shard:i ~gen:e.he_gen
      | None ->
          let slot = sh.h_next in
          sh.h_next <- slot + 1;
          Hashtbl.replace sh.handles slot
            { he_addr = addr; he_ty = type_id; he_gen = sh.h_gen };
          Hashtbl.replace sh.h_at addr ((type_id, slot) :: issued);
          encode_handle ~slot ~shard:i ~gen:sh.h_gen)

let resolve t ~handle ~type_id =
  K.Clock.consume K.Cost.current.objtracker_lookup_ns
  (* decaf-lint: consume-ok, lookup charged inside the caller's span *);
  Dispatch.note K.Cost.current.objtracker_lookup_ns;
  let shard_i = handle_shard handle in
  let sh = t.shards.(if shard_i <= t.mask then shard_i else 0) in
  locked sh (fun () ->
      let reject reason =
        sh.stats.rejected <- sh.stats.rejected + 1;
        Boundary.note_rejected ();
        Error reason
      in
      if handle <= 0 || shard_i > t.mask then
        reject (Printf.sprintf "forged handle %#x: no such shard" handle)
      else
        match Hashtbl.find_opt sh.handles (handle_slot handle) with
        | None ->
            reject
              (Printf.sprintf "forged or stale handle %#x: not issued" handle)
        | Some e when e.he_gen land gen_mask <> handle_gen handle ->
            reject
              (Printf.sprintf "stale handle %#x: generation %d, table at %d"
                 handle (handle_gen handle) (e.he_gen land gen_mask))
        | Some e when e.he_ty <> type_id ->
            reject
              (Printf.sprintf
                 "cross-type handle %#x: issued for %s, presented as %s"
                 handle e.he_ty type_id)
        | Some e -> Ok e.he_addr)

let associate t ~addr u =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      sh.stats.registrations <- sh.stats.registrations + 1;
      let ty = Univ.name u in
      Hashtbl.replace sh.table (addr, ty) u;
      index_add sh addr ty)

let drop_weak sh addr ty =
  (* Reaching here means the strong table missed this slot, so dropping
     the weak entry leaves nothing at (addr, ty). *)
  Hashtbl.remove sh.weak_table (addr, ty);
  index_remove sh addr ty

let find t ~addr key =
  let sh = shard_of t ~addr in
  K.Clock.consume K.Cost.current.objtracker_lookup_ns
  (* decaf-lint: consume-ok, lookup charged inside the caller's span *);
  Dispatch.note K.Cost.current.objtracker_lookup_ns;
  locked sh (fun () ->
      sh.stats.lookups <- sh.stats.lookups + 1;
      let ty = Univ.key_name key in
      match Hashtbl.find_opt sh.table (addr, ty) with
      | Some u ->
          sh.stats.hits <- sh.stats.hits + 1;
          Univ.unpack key u
      | None -> (
          match Hashtbl.find_opt sh.weak_table (addr, ty) with
          | Some entry -> (
              match entry.w_get () with
              | Some u ->
                  sh.stats.hits <- sh.stats.hits + 1;
                  Univ.unpack key u
              | None ->
                  (* the decaf driver dropped its last reference *)
                  drop_weak sh addr ty;
                  None)
          | None -> None))

let find_by_handle t ~handle key =
  match resolve t ~handle ~type_id:(Univ.key_name key) with
  | Error _ -> None
  | Ok addr -> find t ~addr key

let remove_by_handle t ~handle =
  let shard_i = handle_shard handle in
  let sh = t.shards.(if shard_i <= t.mask then shard_i else 0) in
  locked sh (fun () ->
      let reject () =
        sh.stats.rejected <- sh.stats.rejected + 1;
        Boundary.note_rejected ()
      in
      if handle <= 0 || shard_i > t.mask then reject ()
      else
        match Hashtbl.find_opt sh.handles (handle_slot handle) with
        | Some e when e.he_gen land gen_mask = handle_gen handle ->
            Hashtbl.remove sh.table (e.he_addr, e.he_ty);
            Hashtbl.remove sh.weak_table (e.he_addr, e.he_ty);
            index_remove sh e.he_addr e.he_ty;
            revoke sh e.he_addr e.he_ty
        | Some _ | None -> reject ())

let handle_count t =
  Array.fold_left
    (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.handles))
    0 t.shards

(* Read paths take the shard lock like the write paths: they are safe
   unlocked today (no suspension point, one simulated CPU), but the
   shard stats claim to measure this locking discipline's contention, so
   reads must participate in it. *)
let mem t ~addr ~type_id =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      Hashtbl.mem sh.table (addr, type_id)
      || Hashtbl.mem sh.weak_table (addr, type_id))

let associate_weak t ~addr key v =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      sh.stats.registrations <- sh.stats.registrations + 1;
      let w = Weak.create 1 in
      Weak.set w 0 (Some v);
      let w_get () = Option.map (Univ.pack key) (Weak.get w 0) in
      let ty = Univ.key_name key in
      Hashtbl.replace sh.weak_table (addr, ty) { w_get };
      index_add sh addr ty)

let sweep t =
  (* Shard by shard, each pass under that shard's lock: a sweep never
     holds more than one shard, so lookups on other shards proceed while
     dead entries are reclaimed. One [w_get] per entry: collect the dead
     slots in a single pass, then unregister them (table and address
     index together). *)
  Array.fold_left
    (fun total sh ->
      locked sh (fun () ->
          sh.stats.sweeps <- sh.stats.sweeps + 1;
          let dead =
            Hashtbl.fold
              (fun slot entry acc ->
                if entry.w_get () = None then slot :: acc else acc)
              sh.weak_table []
          in
          List.iter
            (fun (addr, ty) ->
              Hashtbl.remove sh.weak_table (addr, ty);
              if not (Hashtbl.mem sh.table (addr, ty)) then
                index_remove sh addr ty)
            dead;
          total + List.length dead))
    0 t.shards

let weak_count t =
  Array.fold_left
    (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.weak_table))
    0 t.shards

let types_at t ~addr =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.by_addr addr with
      | None -> []
      | Some set ->
          let live =
            Hashtbl.fold
              (fun ty () acc ->
                if Hashtbl.mem sh.table (addr, ty) then ty :: acc
                else
                  match Hashtbl.find_opt sh.weak_table (addr, ty) with
                  | Some entry ->
                      if entry.w_get () <> None then ty :: acc else acc
                  | None -> acc)
              set []
          in
          List.sort compare live)

let remove t ~addr ~type_id =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      Hashtbl.remove sh.table (addr, type_id);
      Hashtbl.remove sh.weak_table (addr, type_id);
      index_remove sh addr type_id;
      revoke sh addr type_id)

let remove_all t ~addr =
  let sh = shard_of t ~addr in
  (* The index read happens under the same lock as the removals: a
     snapshot taken before blocking on the lock could go stale while the
     holder (de)registers types at this address. *)
  locked sh (fun () ->
      (match Hashtbl.find_opt sh.by_addr addr with
      | None -> ()
      | Some set ->
          let types = Hashtbl.fold (fun ty () acc -> ty :: acc) set [] in
          List.iter
            (fun type_id ->
              Hashtbl.remove sh.table (addr, type_id);
              Hashtbl.remove sh.weak_table (addr, type_id);
              index_remove sh addr type_id)
            types);
      (* every handle issued at the address, associated or not *)
      List.iter
        (fun (_, slot) -> Hashtbl.remove sh.handles slot)
        (issued_at sh addr);
      Hashtbl.remove sh.h_at addr)

let count t =
  Array.fold_left
    (fun acc sh -> acc + locked sh (fun () -> Hashtbl.length sh.table))
    0 t.shards

let entries t =
  Array.fold_left
    (fun acc sh ->
      acc
      + locked sh (fun () ->
            Hashtbl.length sh.table + Hashtbl.length sh.handles))
    0 t.shards

let add_stats into s =
  into.lookups <- into.lookups + s.lookups;
  into.hits <- into.hits + s.hits;
  into.registrations <- into.registrations + s.registrations;
  into.sweeps <- into.sweeps + s.sweeps;
  into.rejected <- into.rejected + s.rejected

let stats t =
  let acc = fresh_stats () in
  Array.iter (fun sh -> add_stats acc sh.stats) t.shards;
  (* sweeps is per-pass, not per-shard-pass *)
  acc.sweeps <- acc.sweeps / max 1 (Array.length t.shards);
  acc

let shard_stats t =
  Array.map
    (fun sh ->
      {
        lookups = sh.stats.lookups;
        hits = sh.stats.hits;
        registrations = sh.stats.registrations;
        sweeps = sh.stats.sweeps;
        rejected = sh.stats.rejected;
      })
    t.shards

let shard_lock_stats t =
  Array.map (fun sh -> K.Sync.Combolock.stats sh.lock) t.shards

let global_shard_stats () =
  match !registry with
  | [] -> [||]
  | trackers ->
      let width =
        List.fold_left (fun m t -> max m (Array.length t.shards)) 0 trackers
      in
      let acc = Array.init width (fun _ -> fresh_stats ()) in
      List.iter
        (fun t ->
          Array.iteri (fun i sh -> add_stats acc.(i) sh.stats) t.shards)
        trackers;
      acc

let clear t =
  Array.iter
    (fun sh ->
      Hashtbl.reset sh.table;
      Hashtbl.reset sh.weak_table;
      Hashtbl.reset sh.by_addr;
      (* Every outstanding handle is revoked: slots are never reused and
         the generation tag moves on, so a handle minted before the
         clear stays invalid against anything issued after it. *)
      Hashtbl.reset sh.handles;
      Hashtbl.reset sh.h_at;
      sh.h_gen <- (sh.h_gen + 1) land gen_mask)
    t.shards
