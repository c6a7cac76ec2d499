type t = {
  name : string;
  callback : unit -> unit;
  mutable event : Clock.event_id option;
  mutable fired : int;
}

let create ?(name = "timer") callback = { name; callback; event = None; fired = 0 }

let del_timer t =
  match t.event with
  | Some ev ->
      let was_pending = Clock.pending ev in
      Clock.cancel ev;
      t.event <- None;
      was_pending
  | None -> false

let expire t () =
  t.event <- None;
  t.fired <- t.fired + 1;
  Irq.run_at_high_priority t.callback

let mod_timer t ~expires_ns =
  ignore (del_timer t);
  t.event <- Some (Clock.at expires_ns (expire t))

let mod_timer_in t ns = mod_timer t ~expires_ns:(Clock.now () + ns)

let pending t =
  match t.event with Some ev -> Clock.pending ev | None -> false

let fired t = t.fired
