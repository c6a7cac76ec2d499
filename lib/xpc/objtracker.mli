(** The object tracker: associations between an object's C address and
    its local incarnation in some other domain (§3.1.2).

    A single C pointer may be associated with several objects when an
    embedded structure shares its parent's address, so each address has
    one record holding its associations, strong and weak, and the
    handles issued for it, each listed by type identifier.

    The tracker is sharded by address hash: each shard has its own
    tables (records by address, handles by slot), its own
    {!Decaf_kernel.Sync.Combolock} and its own counters,
    so concurrent dispatch workers touching different objects take
    different locks, and only same-shard traffic serializes. User-level
    callers take the semaphore path (combolock semantics: kernel threads
    then block instead of spinning); atomic-context callers run unlocked
    (they cannot block, and on a single CPU they cannot overlap a
    user-level critical section either). *)

type t

type stats = {
  mutable lookups : int;
  mutable hits : int;
  mutable registrations : int;
  mutable sweeps : int;  (** number of {!sweep} passes run *)
  mutable rejected : int;
      (** capability handles refused: forged, stale, or cross-type *)
}

val create : ?name:string -> ?shards:int -> unit -> t
(** [shards] (default 8) is rounded up to a power of two. Every tracker
    is added to a process-wide registry consumed by
    {!global_shard_stats}; {!Decaf_kernel.Boot.boot} clears the registry
    before the runtime recreates its trackers. *)

val associate : t -> addr:int -> Univ.t -> unit
(** Record that [addr] corresponds to the given object; the object's
    {!Univ.name} is the type identifier. Re-associating replaces the
    entry. *)

val find : t -> addr:int -> 'a Univ.key -> 'a option
(** Look up the object of the key's type at [addr]. Charges
    {!Decaf_kernel.Cost.t.objtracker_lookup_ns}. *)

val mem : t -> addr:int -> type_id:string -> bool

val types_at : t -> addr:int -> string list
(** Every type identifier registered at the address (inner and outer
    structures, weak entries whose object is still alive), sorted, each
    once. Read from the address's record, so the cost scales with the
    types at that address, not the table size. *)

val remove : t -> addr:int -> type_id:string -> unit

val remove_all : t -> addr:int -> unit
(** Drop every association at the address and revoke every handle
    issued there, whether or not an association backs it. The kernel
    tracker only issues (the handles of shared structures and their
    embedded rings), so this is what revokes them at unbind. *)

val count : t -> int

val entries : t -> int
(** Strong associations plus live handles ({!count} plus
    {!handle_count}): what a leak ledger holds to its baseline, since a
    handle the kernel tracker issued leaks without any association.
    One lock per shard, as {!count} takes, so a ledger reading this
    instead of {!count} takes no more locks and charges no more
    virtual time. *)

val stats : t -> stats
(** Aggregated snapshot over all shards. [sweeps] counts whole {!sweep}
    passes, as before sharding. *)

val clear : t -> unit

(** {1 Sharding} *)

val shard_count : t -> int

val shard_stats : t -> stats array
(** Per-shard counter snapshots, indexed by shard. *)

val shard_lock_stats : t -> Decaf_kernel.Sync.Combolock.stats array
(** Each shard's combolock counters (live records, not snapshots). *)

val global_shard_stats : unit -> stats array
(** Per-shard counters summed across every registered tracker (the
    kernel- and Java-side trackers of the running machine). Indexed by
    shard; surfaced through [Channel.stats]. *)

(** {1 Capability handles}

    Raw C addresses never cross to user level as inbound references: the
    kernel issues a {!handle} for each (address, type) association it
    shares, and every inbound object reference resolves through the
    handle table. A handle encodes its owning shard, a never-reused slot
    and a generation tag; the table entry — not the handle's bits — is
    authoritative, so a forged handle (never issued), a stale one
    (revoked by {!remove}/{!remove_all}/{!clear}, or from before a
    generation bump) and a cross-type one (issued for another type at
    the same address, e.g. an embedded struct) are all refused, counted
    in [stats.rejected] and {!Boundary.totals}. *)

type handle = int
(** Opaque on the wire (marshaled as a uint); validity is decided by the
    issuing tracker's table, never by the bits alone. Never 0. *)

val issue : t -> addr:int -> type_id:string -> handle
(** The capability for (addr, type_id); idempotent until revoked —
    re-issuing returns the same handle. *)

val resolve : t -> handle:handle -> type_id:string -> (int, string) result
(** [Ok addr] when the handle was issued for [type_id] and is still
    live; [Error reason] (counted) for forged, stale and cross-type
    handles. Charges {!Decaf_kernel.Cost.t.objtracker_lookup_ns}. *)

val find_by_handle : t -> handle:handle -> 'a Univ.key -> 'a option
(** {!resolve} with the key's type, then {!find}. Rejections count and
    return [None]. *)

val remove_by_handle : t -> handle:handle -> unit
(** Remove the association the handle names and revoke the handle.
    Forged/stale handles are counted and removed nothing. *)

val handle_count : t -> int
(** Live (issued, unrevoked) handles, all shards. *)

(** {1 Automatic collection}

    The paper's proposed extension (§3.1.2): track shared objects with
    weak references so that, once the decaf driver drops its last
    reference, the association disappears and the object can be
    garbage-collected — instead of requiring drivers to free shared
    objects explicitly. *)

val associate_weak : t -> addr:int -> 'a Univ.key -> 'a -> unit
(** Like {!associate}, but the tracker does not keep the object alive:
    after the object becomes unreachable (and a GC has run), {!find}
    misses and {!sweep} reclaims the entry. *)

val sweep : t -> int
(** Drop entries whose weakly-held object has been collected; returns
    how many were reclaimed. Each entry's weak reference is dereferenced
    exactly once per pass; every pass bumps [stats.sweeps]. *)

val weak_count : t -> int
(** Live weak associations (dead-but-unswept entries included). *)
