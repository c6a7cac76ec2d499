module K = Decaf_kernel
open Decaf_xpc

let direct_calls = ref 0

(* A direct cross-language call: no marshaling, no thread switch; we
   charge a small fixed cost (JNI-style transition). *)
let direct_transition_ns = 300

let direct io a b =
  incr direct_calls;
  K.Clock.consume direct_transition_ns;
  Domain.call_in Domain.Driver_lib io a b

let via_xpc ~bytes f =
  Channel.call ~target:Domain.Driver_lib ~payload_bytes:bytes ~reply_bytes:0
    f

let to_kernel ~bytes f =
  Channel.call ~target:Domain.Kernel ~payload_bytes:bytes ~reply_bytes:0 f

let direct_call_count () = !direct_calls
let () = K.Boot.on_reset (fun () -> direct_calls := 0)
