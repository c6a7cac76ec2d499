(** The tracker-bound half of a crossing structure, written once for
    every driver with a shared-object layer.

    {!Decaf_xpc.Codec} knows a structure's fields and wire format;
    {!Make} binds a codec to the two object trackers of the decaf
    runtime. The kernel copy lives at a simulated C address; the wire
    carries the capability handle the kernel tracker issued for it,
    never the address; the user-level (Java) view is filed under that
    handle in the user tracker. Each side keeps its own dirty marks:
    with delta marshaling on, a repeat marshal carries only the fields
    written since the last acknowledged crossing, and until a
    user-level view exists (first crossing, or the first after a
    runtime restart) the image is always full.

    Every tracker call takes a shard lock, and the first issue of an
    (address, type) pair allocates the handle's slot, so each operation
    below makes one fixed sequence of tracker calls. *)

open Decaf_xpc
module Plan = Marshal_plan
module Runtime = Decaf_runtime.Runtime

(** A user-level view: the capability it mirrors (user level never
    holds the kernel's C address) and its copy of the fields. *)
type user = { handle : Objtracker.handle; fields : Codec.obj }

module type SPEC = sig
  type kernel

  val codec : Codec.t

  val key : user Univ.key
  (** Named after the codec's type id. *)

  val addr : kernel -> int
  val fields : kernel -> Codec.obj

  val on_create : kernel -> user -> unit
  (** Register, beside a view just created, the structures embedded in
      it. *)

  val embedded : kernel -> Objtracker.handle list
  (** Their capabilities, revoked at user level by [release]. *)

  val aliases : kernel -> int list
  (** Their kernel addresses other than the structure's own. *)
end

module type S = sig
  type kernel

  val codec : Codec.t
  (** The structure's descriptor table. *)

  val fields : kernel -> Codec.obj
  (** The kernel copy's storage. *)

  val handle : kernel -> Objtracker.handle
  (** The structure's capability; issue is idempotent until revoked. *)

  val resolve : int -> (int, string) result
  (** An inbound handle resolved as this type (a ring's [resolve]). *)

  val user_has_view : kernel -> bool
  (** The gate for the delta and ring fast paths, which update a view. *)

  val find_view : Objtracker.handle -> user option

  val user_view_mark : kernel -> int
  (** The dirty generation to snapshot before {!marshal_to_user} and
      pass to {!ack_user_view} once the crossing carrying that image
      succeeded; writes landing in between (an interrupt during the
      call) keep their marks. *)

  val ack_user_view : kernel -> upto:int -> unit

  val wire_size : int
  (** Bytes of a full image, whatever the delta mode. *)

  val marshal_to_user : kernel -> bytes
  (** The copy-in fields: all, or (delta mode, view exists) the dirty
      ones. *)

  val unmarshal_at_user : bytes -> kernel -> user
  (** Find or create the view, and store the image without marks. *)

  val marshal_to_kernel : user -> bytes
  (** The copy-out fields; in delta mode only the view's unacknowledged
      writes, acknowledged here (the reply leg cannot time out alone). *)

  val unmarshal_at_kernel : bytes -> kernel -> unit
  (** Size bound, decode, resolve, guard, then apply the copy-out
      fields; any failure is a counted [Boundary_violation] that applied
      nothing. *)

  val resync_user_view : kernel -> unit
  (** Mark every copy-in field, so the next image is full (resume). *)

  val release : Driver_env.t -> kernel -> unit
  (** Revoke the instance's entries in both trackers at unbind; nothing
      in native, which never issued or associated one. *)

  val with_view :
    Driver_env.t -> scope:string -> kernel -> name:string ->
    (Codec.obj -> 'a) -> 'a
  (** Run [f] on the user-level view: one upcall when the build is
      split (staged or decaf), with boundary faults attributed to
      [scope]; in native, [f] runs on the kernel copy, and nothing
      reaches Guard, the trackers or the XPC account. *)

  val post_sync :
    Driver_env.t -> scope:string -> kernel -> name:string -> unit
  (** A non-urgent kernel-to-user refresh through the env's notify,
      marshaled now and acknowledged on delivery; nothing in native. *)
end

module Make (Spec : SPEC) : S with type kernel = Spec.kernel = struct
  type kernel = Spec.kernel

  let codec = Spec.codec
  let fields = Spec.fields
  let plan = Codec.plan codec
  let type_id = Codec.type_id codec
  let kernel_tracker = Runtime.kernel_tracker
  let java_tracker = Runtime.java_tracker
  let handle k =
    Objtracker.issue (kernel_tracker ()) ~addr:(Spec.addr k) ~type_id

  let resolve handle = Objtracker.resolve (kernel_tracker ()) ~handle ~type_id

  (* the user tracker is keyed by the handle: that IS the object
     reference user level holds *)
  let user_has_view k =
    Objtracker.mem (java_tracker ()) ~addr:(handle k) ~type_id

  let find_view h = Objtracker.find (java_tracker ()) ~addr:h Spec.key
  let dirty k = Codec.dirty (Spec.fields k)
  let user_view_mark k = Plan.Dirty.snapshot (dirty k)
  let ack_user_view k ~upto = Plan.Dirty.acknowledge (dirty k) ~upto

  let wire_size =
    Bytes.length
      (Codec.encode (Codec.create codec) ~handle:0 Codec.Copy_in ~delta:false)

  let marshal_to_user k =
    let delta = Plan.delta_enabled () && user_has_view k in
    Codec.encode (Spec.fields k) ~handle:(handle k) Codec.Copy_in ~delta

  let unmarshal_at_user bytes k =
    let img = Codec.decode codec bytes in
    let h = Codec.handle img in
    let j =
      match find_view h with
      | Some j -> j
      | None ->
          let fields = Codec.create ~owner:(type_id ^ ".user") codec in
          let j = { handle = h; fields } in
          Objtracker.associate (java_tracker ()) ~addr:h (Univ.pack Spec.key j);
          Spec.on_create k j;
          j
    in
    Codec.apply j.fields img ~writable_only:false;
    j

  let marshal_to_kernel j =
    let delta = Plan.delta_enabled () in
    let dirty = Codec.dirty j.fields in
    let upto = Plan.Dirty.snapshot dirty in
    let b = Codec.encode j.fields ~handle:j.handle Codec.Copy_out ~delta in
    if delta then Plan.Dirty.acknowledge dirty ~upto;
    b

  (* The user-level driver is untrusted: everything is checked before
     anything is applied, so a violation leaves the object untouched. *)
  let unmarshal_at_kernel bytes k =
    let guard = Codec.guard codec in
    Guard.check_inbound_bytes guard (Bytes.length bytes);
    let img =
      try Codec.decode codec bytes
      with Xdr.Decode_error reason -> Guard.reject_malformed guard reason
    in
    let h = Codec.handle img in
    (match resolve h with
    | Error reason ->
        (* resolve already counted the rejection *)
        raise
          (Boundary.Boundary_violation { type_id; field = "handle"; reason })
    | Ok addr ->
        if addr <> Spec.addr k then
          Boundary.reject ~type_id ~field:"handle"
            "handle %#x names %s %#x, crossing is for %#x" h type_id addr
            (Spec.addr k));
    Codec.check img;
    Codec.apply (Spec.fields k) img ~writable_only:true

  let resync_user_view k =
    List.iteri
      (fun i (f, _) ->
        if Plan.copies_in plan f then Plan.Dirty.mark (dirty k) i)
      (Plan.fields plan)

  (* The tracker mirrors object lifetime (the Nooks discipline), so a
     handle kept across unbind resolves to nothing. The embedded
     capabilities issue before the structure's own: issue order fixes
     handle slots. A native build tracked nothing, so it takes no shard
     lock. *)
  let release env k =
    if Driver_env.split env then begin
      let embedded = Spec.embedded k in
      let own = handle k in
      List.iter
        (fun h -> Objtracker.remove_all (java_tracker ()) ~addr:h)
        (own :: embedded);
      List.iter
        (fun addr -> Objtracker.remove_all (kernel_tracker ()) ~addr)
        (Spec.addr k :: Spec.aliases k)
    end

  (* Native: the kernel copy is the only copy, so [f] works on it and
     nothing is marshaled, guarded or tracked. *)
  let with_view env ~scope k ~name f =
    if not (Driver_env.split env) then f (Spec.fields k)
    else begin
      Driver_env.start_runtime env;
      Boundary.scoped scope (fun () ->
          let upto = user_view_mark k in
          let payload = marshal_to_user k in
          let result, back =
            Driver_env.upcall env ~name ~bytes:(Bytes.length payload)
              (fun () ->
                let j = unmarshal_at_user payload k in
                let result = f j.fields in
                (result, marshal_to_kernel j))
          in
          (* the crossing carried every mark up to the snapshot; marks
             from interrupts during the call stay for the next sync *)
          ack_user_view k ~upto;
          unmarshal_at_kernel back k;
          result)
    end

  (* Marshal now (legal in interrupt context) and acknowledge only when
     the notify delivers: a failed flush leaves the marks for the next
     sync. *)
  let post_sync env ~scope k ~name =
    if Driver_env.split env then begin
      let upto = user_view_mark k in
      let payload = marshal_to_user k in
      Driver_env.notify env ~name ~bytes:(Bytes.length payload) (fun () ->
          Boundary.scoped scope (fun () ->
              ignore (unmarshal_at_user payload k);
              ack_user_view k ~upto))
    end
end
