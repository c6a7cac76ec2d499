type lock_discipline = Lock_mutex | Lock_spin

type card = { card_name : string; mutable registered : bool }

type pcm_ops = {
  pcm_open : unit -> (unit, int) result;
  pcm_close : unit -> unit;
  pcm_hw_params : rate:int -> channels:int -> sample_bits:int -> (unit, int) result;
  pcm_prepare : unit -> (unit, int) result;
  pcm_trigger : [ `Start | `Stop ] -> unit;
  pcm_pointer : unit -> int;
}

type substream = {
  card : card;
  ops : pcm_ops;
  buffer_bytes : int;
  mutex : Sync.Mutex.t;
  spin : Sync.Spinlock.t;
  writers : Sync.Waitq.t;
  mutable appl_pos : int;
  mutable hw_pos : int;
  mutable running : bool;
}

let discipline = ref Lock_mutex
let set_lock_discipline d = discipline := d
let cards : card list ref = ref []

let snd_card_new name =
  let c = { card_name = name; registered = false } in
  cards := c :: !cards;
  c

let snd_card_register c =
  if c.registered then -17 (* -EEXIST *)
  else begin
    c.registered <- true;
    Klog.printk Klog.Info "snd: card %s registered" c.card_name;
    0
  end

let snd_card_free c =
  c.registered <- false;
  cards := List.filter (fun o -> o != c) !cards

let card_registered c = c.registered

let new_pcm card ~buffer_bytes ops =
  {
    card;
    ops;
    buffer_bytes;
    mutex = Sync.Mutex.create ~name:"pcm" ();
    spin = Sync.Spinlock.create ~name:"pcm" ();
    writers = Sync.Waitq.create ~name:"snd-writers" ();
    appl_pos = 0;
    hw_pos = 0;
    running = false;
  }

(* Every driver callback runs under the library lock; the discipline
   decides whether that lock permits blocking (see module doc). *)
let locked s f =
  match !discipline with
  | Lock_mutex -> Sync.Mutex.with_lock s.mutex f
  | Lock_spin -> Sync.Spinlock.with_lock s.spin f

let pcm_open s = locked s s.ops.pcm_open
let pcm_close s = locked s s.ops.pcm_close

let pcm_set_params s ~rate ~channels ~sample_bits =
  locked s (fun () -> s.ops.pcm_hw_params ~rate ~channels ~sample_bits)

let pcm_prepare s =
  s.appl_pos <- 0;
  s.hw_pos <- 0;
  locked s s.ops.pcm_prepare

let pcm_start s =
  locked s (fun () -> s.ops.pcm_trigger `Start);
  s.running <- true

let pcm_stop s =
  locked s (fun () -> s.ops.pcm_trigger `Stop);
  s.running <- false

let pcm_bytes_queued s = s.appl_pos - s.hw_pos

let pcm_write s n =
  if n < 0 then invalid_arg "Sndcore.pcm_write";
  while pcm_bytes_queued s + n > s.buffer_bytes do
    Sync.Waitq.wait s.writers
  done;
  s.appl_pos <- s.appl_pos + n

let audio_period = Latency.path "audio.period"

let period_elapsed s =
  s.hw_pos <- Int.max s.hw_pos (s.ops.pcm_pointer ());
  (* period serviced: close the hardware period-tick timeline (no-op
     when the tick was not stamped, e.g. tests driving the core
     directly) *)
  ignore (Clock.track_end audio_period);
  ignore (Sync.Waitq.wake_all s.writers)

let reset () =
  cards := [];
  discipline := Lock_mutex
