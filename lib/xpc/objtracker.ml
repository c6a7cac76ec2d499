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

type weak_entry = { w_ty : string; w_get : unit -> Univ.t option }

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

(* Everything one address holds, each list keyed by type id: its strong
   and weak associations, and the handles issued for it, for idempotent
   issue and for [remove_all], which revokes an address's handles
   whether or not anything is associated with it (the kernel tracker
   only issues). A few types share an address at most (a structure and
   those embedded at offset 0), so the lists are walked, not indexed. *)
type cell = {
  mutable strong : Univ.t list;
  mutable weak : weak_entry list;
  mutable issued : (string * handle) list;
}

(* One shard: the former global tracker structure, now guarded by its
   own combolock and counting its own traffic. Addresses hash to shards,
   so lookups touching different objects take different locks. *)
type shard = {
  cells : (int, cell) Hashtbl.t;
  handles : (int, h_entry) Hashtbl.t;  (* slot -> entry *)
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
              cells = Hashtbl.create 16;
              handles = Hashtbl.create 8;
              h_next = 1;
              h_gen = 0;
              lock =
                K.Sync.Combolock.create
                  ~name:(name ^ "/shard" ^ string_of_int i)
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
   section, so it runs unlocked. The lock's base cost, which the
   combolock consumes, is credited to the XPC account along with the
   lookup cost itself. *)
let locked sh f =
  if K.Sched.in_interrupt () || K.Sched.spin_depth () > 0 then f ()
  else if Domain.is_user (Domain.current ()) then begin
    Dispatch.credit K.Cost.current.semaphore_ns;
    K.Sync.Combolock.with_user sh.lock f
  end
  else begin
    Dispatch.credit K.Cost.current.spinlock_ns;
    K.Sync.Combolock.with_kernel sh.lock f
  end

(* --- a cell's lists, walked by top-level functions: [ty_of] names a
   top-level function too, so a probe builds no closure --- *)

let strong_ty = Univ.name
let weak_ty w = w.w_ty
let issued_ty (ty, _) = ty

let rec find_ty ty_of ty = function
  | [] -> None
  | x :: rest ->
      if String.equal (ty_of x) ty then Some x else find_ty ty_of ty rest

let rec has_ty ty_of ty = function
  | [] -> false
  | x :: rest -> String.equal (ty_of x) ty || has_ty ty_of ty rest

(* Types are unique within a list, so the first match is the only one. *)
let rec drop_ty ty_of ty = function
  | [] -> []
  | x :: rest ->
      if String.equal (ty_of x) ty then rest else x :: drop_ty ty_of ty rest

let cell_at sh addr =
  match Hashtbl.find_opt sh.cells addr with
  | Some c -> c
  | None ->
      let c = { strong = []; weak = []; issued = [] } in
      Hashtbl.replace sh.cells addr c;
      c

(* An address that holds nothing leaves the table. *)
let empty = function
  | { strong = []; weak = []; issued = [] } -> true
  | _ -> false

let prune sh addr c = if empty c then Hashtbl.remove sh.cells addr

let revoke sh (_, h) = Hashtbl.remove sh.handles (handle_slot h)

(* Drop (addr, ty)'s associations and revoke its handle: after the
   association is gone, a replayed handle must reject as stale. *)
let remove_in sh addr ty =
  match Hashtbl.find_opt sh.cells addr with
  | None -> ()
  | Some c ->
      c.strong <- drop_ty strong_ty ty c.strong;
      c.weak <- drop_ty weak_ty ty c.weak;
      Option.iter (revoke sh) (find_ty issued_ty ty c.issued);
      c.issued <- drop_ty issued_ty ty c.issued;
      prune sh addr c

(* --- capability handles --- *)

let issue t ~addr ~type_id =
  let i = Hashtbl.hash addr land t.mask in
  let sh = t.shards.(i) in
  locked sh (fun () ->
      let c = cell_at sh addr in
      match find_ty issued_ty type_id c.issued with
      | Some (_, h) -> h
      | None ->
          let slot = sh.h_next in
          sh.h_next <- slot + 1;
          Hashtbl.replace sh.handles slot
            { he_addr = addr; he_ty = type_id; he_gen = sh.h_gen };
          let h = encode_handle ~slot ~shard:i ~gen:sh.h_gen in
          c.issued <- (type_id, h) :: c.issued;
          h)

let resolve t ~handle ~type_id =
  Dispatch.charge K.Cost.current.objtracker_lookup_ns;
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
      let c = cell_at sh addr in
      c.strong <- u :: drop_ty strong_ty (Univ.name u) c.strong)

let find t ~addr key =
  let sh = shard_of t ~addr in
  Dispatch.charge K.Cost.current.objtracker_lookup_ns;
  locked sh (fun () ->
      sh.stats.lookups <- sh.stats.lookups + 1;
      match Hashtbl.find_opt sh.cells addr with
      | None -> None
      | Some c -> (
          let ty = Univ.key_name key in
          match find_ty strong_ty ty c.strong with
          | Some u ->
              sh.stats.hits <- sh.stats.hits + 1;
              Univ.unpack key u
          | None -> (
              match find_ty weak_ty ty c.weak with
              | Some entry -> (
                  match entry.w_get () with
                  | Some u ->
                      sh.stats.hits <- sh.stats.hits + 1;
                      Univ.unpack key u
                  | None ->
                      (* the decaf driver dropped its last reference *)
                      c.weak <- drop_ty weak_ty ty c.weak;
                      prune sh addr c;
                      None)
              | None -> None)))

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
            remove_in sh e.he_addr e.he_ty
        | Some _ | None -> reject ())

(* Read paths take the shard lock like the write paths: they are safe
   unlocked today (no suspension point, one simulated CPU), but the
   shard stats claim to measure this locking discipline's contention, so
   reads must participate in it. *)
let mem t ~addr ~type_id =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.cells addr with
      | None -> false
      | Some c ->
          has_ty strong_ty type_id c.strong || has_ty weak_ty type_id c.weak)

let associate_weak t ~addr key v =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      sh.stats.registrations <- sh.stats.registrations + 1;
      let w = Weak.create 1 in
      Weak.set w 0 (Some v);
      let w_get () = Option.map (Univ.pack key) (Weak.get w 0) in
      let ty = Univ.key_name key in
      let c = cell_at sh addr in
      c.weak <- { w_ty = ty; w_get } :: drop_ty weak_ty ty c.weak)

let sweep t =
  (* Shard by shard, each pass under that shard's lock: a sweep never
     holds more than one shard, so lookups on other shards proceed while
     dead entries are reclaimed. One [w_get] per entry. *)
  Array.fold_left
    (fun total sh ->
      locked sh (fun () ->
          sh.stats.sweeps <- sh.stats.sweeps + 1;
          let dead = ref 0 in
          Hashtbl.filter_map_inplace
            (fun _ c ->
              let live =
                List.filter (fun w -> Option.is_some (w.w_get ())) c.weak
              in
              dead := !dead + List.length c.weak - List.length live;
              c.weak <- live;
              if empty c then None else Some c)
            sh.cells;
          total + !dead))
    0 t.shards

(* Per shard, under its one lock: [base] of the shard plus [f] summed
   over its cells; summed over the shards. *)
let sum_shards t base f =
  Array.fold_left
    (fun acc sh ->
      locked sh (fun () ->
          Hashtbl.fold (fun _ c acc -> acc + f c) sh.cells (acc + base sh)))
    0 t.shards

let none _ = 0
let handles_in sh = Hashtbl.length sh.handles
let strong_in c = List.length c.strong
let handle_count t = sum_shards t handles_in none
let weak_count t = sum_shards t none (fun c -> List.length c.weak)
let count t = sum_shards t none strong_in
let entries t = sum_shards t handles_in strong_in

let types_at t ~addr =
  let sh = shard_of t ~addr in
  locked sh (fun () ->
      match Hashtbl.find_opt sh.cells addr with
      | None -> []
      | Some c ->
          List.fold_left
            (fun acc w ->
              if Option.is_some (w.w_get ()) then w.w_ty :: acc else acc)
            (List.map strong_ty c.strong) c.weak
          |> List.sort_uniq String.compare)

let remove t ~addr ~type_id =
  let sh = shard_of t ~addr in
  locked sh (fun () -> remove_in sh addr type_id)

let remove_all t ~addr =
  let sh = shard_of t ~addr in
  (* The cell is read under the same lock as the removals: a snapshot
     taken before blocking on the lock could go stale while the holder
     (de)registers types at this address. *)
  locked sh (fun () ->
      match Hashtbl.find_opt sh.cells addr with
      | None -> ()
      | Some c ->
          (* every handle issued at the address, associated or not *)
          List.iter (revoke sh) c.issued;
          Hashtbl.remove sh.cells addr)

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
  Array.map (fun sh -> { sh.stats with lookups = sh.stats.lookups }) t.shards

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
      Hashtbl.reset sh.cells;
      (* Every outstanding handle is revoked: slots are never reused and
         the generation tag moves on, so a handle minted before the
         clear stays invalid against anything issued after it. *)
      Hashtbl.reset sh.handles;
      sh.h_gen <- (sh.h_gen + 1) land gen_mask)
    t.shards
