module K = Decaf_kernel
module Xpc = Decaf_xpc
open Decaf_drivers
open Decaf_workloads

type direct_marshal = {
  indirect_init_ns : int;
  direct_init_ns : int;
  indirect_c_java_calls : int;
  direct_c_java_calls : int;
}

type lock_cost = {
  combolock_ns : int;
  semaphore_ns : int;
  iterations : int;
}

type marshal_selectivity = {
  plan_bytes : int;
  full_bytes : int;
  init_transfers : int;
}

type t = {
  direct_marshal : direct_marshal;
  lock_cost : lock_cost;
  marshal_selectivity : marshal_selectivity;
}

(* A1: e1000 decaf init latency with and without the direct path, and
   the kernel/user crossings of the bring-up, A3's adapter transfers. *)
let e1000_decaf_init ~direct =
  Scenario.boot ();
  let nic = Rig.plug "e1000" in
  Scenario.in_thread (fun () ->
      Xpc.Channel.set_direct_marshaling direct;
      Rig.ok "e1000 insmod" (Driver_core.insmod "e1000" ~mode:Driver_env.Decaf);
      let t0 = K.Clock.now () in
      Rig.up nic;
      let init =
        (Driver_core.snapshot "e1000").Driver_core.s_init_latency_ns
        + (K.Clock.now () - t0)
      in
      let st = Xpc.Channel.snapshot () in
      Driver_core.rmmod "e1000";
      Xpc.Channel.set_direct_marshaling false;
      (init, st.Xpc.Channel.c_java_calls, st.Xpc.Channel.kernel_user_calls))

(* A2: virtual cost of the kernel-only path, combolock vs semaphore. *)
let measure_lock_cost () =
  let iterations = 10_000 in
  Scenario.boot ();
  let combo = K.Sync.Combolock.create () in
  let combolock_ns =
    Scenario.in_thread (fun () ->
        let t0 = K.Clock.now () in
        for _ = 1 to iterations do
          K.Sync.Combolock.with_kernel combo (fun () -> ())
        done;
        K.Clock.now () - t0)
  in
  Scenario.boot ();
  let sem = K.Sync.Semaphore.create 1 in
  let semaphore_ns =
    Scenario.in_thread (fun () ->
        let t0 = K.Clock.now () in
        for _ = 1 to iterations do
          K.Sync.Semaphore.down sem;
          K.Sync.Semaphore.up sem
        done;
        K.Clock.now () - t0)
  in
  { combolock_ns; semaphore_ns; iterations }

(* A3: bytes per adapter transfer, selective plan vs everything, over
   the [init_transfers] crossings of init+open that carry the adapter. *)
let measure_marshal_selectivity ~init_transfers =
  let out =
    Decaf_slicer.Slicer.slice ~source:E1000_src.source E1000_src.config
  in
  let full_bytes = Decaf_slicer.Xdrspec.wire_size out.Decaf_slicer.Slicer.spec "e1000_adapter" in
  { plan_bytes = E1000_objects.wire_size; full_bytes; init_transfers }

let measure () =
  let indirect_init_ns, indirect_c_java_calls, init_transfers =
    e1000_decaf_init ~direct:false
  in
  let direct_init_ns, direct_c_java_calls, _ = e1000_decaf_init ~direct:true in
  {
    direct_marshal =
      {
        indirect_init_ns;
        direct_init_ns;
        indirect_c_java_calls;
        direct_c_java_calls;
      };
    lock_cost = measure_lock_cost ();
    marshal_selectivity = measure_marshal_selectivity ~init_transfers;
  }

let render t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "Ablations of the Decaf design decisions\n";
  add "A1: direct nucleus<->decaf marshaling (the optimization of section 4)\n";
  add "    e1000 decaf init: %.2f ms indirect -> %.2f ms direct (%.1f%% less)\n"
    (float_of_int t.direct_marshal.indirect_init_ns /. 1e6)
    (float_of_int t.direct_marshal.direct_init_ns /. 1e6)
    (100.
    *. float_of_int
         (t.direct_marshal.indirect_init_ns - t.direct_marshal.direct_init_ns)
    /. float_of_int t.direct_marshal.indirect_init_ns);
  add "    C/Java re-marshal legs: %d -> %d\n"
    t.direct_marshal.indirect_c_java_calls t.direct_marshal.direct_c_java_calls;
  add "A2: combolock kernel fast path vs plain semaphore (%d acquisitions)\n"
    t.lock_cost.iterations;
  add "    combolock %.3f ms, semaphore %.3f ms (%.1fx)\n"
    (float_of_int t.lock_cost.combolock_ns /. 1e6)
    (float_of_int t.lock_cost.semaphore_ns /. 1e6)
    (float_of_int t.lock_cost.semaphore_ns /. float_of_int t.lock_cost.combolock_ns);
  add "A3: field-selective marshal plan vs full-structure copy (e1000_adapter)\n";
  add "    %d bytes/transfer under the plan vs %d full (%d transfers at init: %d vs %d bytes)\n"
    t.marshal_selectivity.plan_bytes t.marshal_selectivity.full_bytes
    t.marshal_selectivity.init_transfers
    (t.marshal_selectivity.plan_bytes * t.marshal_selectivity.init_transfers)
    (t.marshal_selectivity.full_bytes * t.marshal_selectivity.init_transfers);
  Buffer.contents buf
