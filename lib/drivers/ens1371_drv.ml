module K = Decaf_kernel
module Hw = Decaf_hw
module S = Hw.Ens1371_hw
module Errors = Decaf_runtime.Errors

let vendor_id = 0x1274
let device_id = 0x1371
let adapter_wire_bytes = 160
let driver = "ens1371"
let mixer_controls = 24
let period_bytes = 4096
let buffer_bytes = 4 * period_bytes

let models : (string, S.t) Hashtbl.t = Hashtbl.create 4

let setup_device ~slot ~io_base ~irq () =
  let model = S.create ~io_base ~irq () in
  Hashtbl.replace models slot model;
  K.Pci.add_device
    (K.Pci.make_dev ~slot ~vendor:vendor_id ~device:device_id ~irq_line:irq
       ~bars:[ { K.Pci.kind = K.Pci.Port_bar; base = io_base; len = 0x40 } ]
       ());
  model

type adapter = {
  env : Driver_env.t;
  scope : string;  (** binding id: "ens1371" or "ens1371#k" *)
  slot : string;  (** PCI slot this binding claimed *)
  model : S.t;
  io_base : int;
  irq : int;
  mutable card : K.Sndcore.card option;
  mutable sub : K.Sndcore.substream option;
  mutable rate : int;
  mutable dac_on : bool;
  mutable pos_base : int;
      (** device consumed-byte count at the last prepare: the DAC's
          counter is cumulative across streams, but the PCM layer wants
          a per-stream position, so prepare re-baselines it like a real
          driver resetting its DMA frame counter *)
}

let reg a off = a.io_base + off

let outl a off v = Driver_env.outl a.env (reg a off) v

(* --- driver nucleus: interrupt handler (data path) --- *)

(* Deferred kernel->user hardware-pointer refresh: the user-level half
   tracks playback position for its PCM callbacks, but period interrupts
   land in the nucleus. Each period posts a one-way notification (legal
   from interrupt context; batched and flushed like E1000_drv's stats
   syncs) instead of paying a synchronous crossing per interrupt. *)
let ptr_wire_bytes = 12

let interrupt a =
  let status = K.Io.inl (reg a S.reg_status) in
  if status land S.status_dac2 <> 0 then begin
    K.Io.outl (reg a S.reg_status) S.status_dac2;
    (* report progress to the sound library; writers wake as needed *)
    (match a.sub with Some sub -> K.Sndcore.period_elapsed sub | None -> ());
    Driver_env.notify a.env ~name:"ens1371_pcm_ptr" ~bytes:ptr_wire_bytes ignore
  end

(* --- decaf driver: codec / SRC programming and PCM callbacks --- *)

let codec_write a ac97_reg value =
  outl a S.reg_codec ((ac97_reg lsl 16) lor value)

let init_codec a =
  (* power up the AC97 codec (calibration takes ~20 ms) and set default
     volumes *)
  K.Sched.sleep_ns 20_000_000;
  codec_write a 0x00 0x0000;
  codec_write a 0x02 0x0808;
  codec_write a 0x04 0x0808;
  codec_write a 0x18 0x0808;
  codec_write a 0x2a 0x0001

let pcm_ops a =
  {
    K.Sndcore.pcm_open =
      (fun () ->
        Driver_env.upcall a.env ~name:"ens1371_pcm_open" ~bytes:adapter_wire_bytes
          (fun () -> Ok ()));
    pcm_close =
      (fun () ->
        Driver_env.upcall a.env ~name:"ens1371_pcm_close"
          ~bytes:adapter_wire_bytes (fun () -> ()));
    pcm_hw_params =
      (fun ~rate ~channels ~sample_bits ->
        Driver_env.upcall a.env ~name:"ens1371_hw_params"
          ~bytes:adapter_wire_bytes (fun () ->
            if channels <> 2 || sample_bits <> 16 then Error (-Errors.einval)
            else begin
              a.rate <- rate;
              (* program the sample-rate converter from user level *)
              outl a S.reg_src rate;
              Ok ()
            end));
    pcm_prepare =
      (fun () ->
        Driver_env.upcall a.env ~name:"ens1371_prepare" ~bytes:adapter_wire_bytes
          (fun () ->
            outl a S.reg_frame_size period_bytes;
            a.pos_base <- S.consumed a.model;
            Ok ()));
    pcm_trigger =
      (fun cmd ->
        Driver_env.upcall a.env ~name:"ens1371_trigger" ~bytes:adapter_wire_bytes
          (fun () ->
            match cmd with
            | `Start ->
                a.dac_on <- true;
                outl a S.reg_control S.ctrl_dac2_en
            | `Stop ->
                a.dac_on <- false;
                outl a S.reg_control 0));
    pcm_pointer = (fun () -> S.consumed a.model - a.pos_base);
  }

let probe env (pci : K.Pci.dev) =
  match Hashtbl.find_opt models (K.Pci.slot pci) with
  | None -> Error (-Errors.enodev)
  | Some model ->
      K.Pci.enable_device pci;
      let bar = K.Pci.bar pci 0 in
      let a =
        {
          env;
          scope = env.Driver_env.scope;
          slot = K.Pci.slot pci;
          model;
          io_base = bar.K.Pci.base;
          irq = K.Pci.irq pci;
          card = None;
          sub = None;
          rate = 0;
          dac_on = false;
          pos_base = 0;
        }
      in
      let rc =
        Driver_env.upcall env ~name:"ens1371_probe" ~bytes:adapter_wire_bytes
          (fun () ->
            init_codec a;
            (* create and register the card: kernel services invoked from
               user level (Figure 2's snd_card_register stub) *)
            let card =
              Driver_env.downcall a.env ~name:"snd_card_new" ~bytes:32 (fun () ->
                  K.Sndcore.snd_card_new "Ensoniq AudioPCI")
            in
            a.card <- Some card;
            let sub =
              Driver_env.downcall a.env ~name:"snd_pcm_new" ~bytes:48 (fun () ->
                  K.Sndcore.new_pcm card ~buffer_bytes (pcm_ops a))
            in
            a.sub <- Some sub;
            (* DMA: the DAC reads the substream ring directly *)
            S.set_data_source a.model (fun () -> K.Sndcore.pcm_bytes_queued sub);
            (* register the mixer controls, one downcall each *)
            for i = 1 to mixer_controls do
              Driver_env.downcall a.env ~name:"snd_ctl_add" ~bytes:24 (fun () ->
                  ignore i)
            done;
            Driver_env.downcall a.env ~name:"request_irq" ~bytes:16 (fun () ->
                K.Irq.request_irq a.irq ~name:a.scope (fun () -> interrupt a));
            (* if registration faults, give the line back: a retry of the
               probe must be able to claim it again *)
            Errors.protect
              ~cleanup:(fun () -> K.Irq.free_irq a.irq)
              (fun () ->
                Driver_env.downcall a.env ~name:"snd_card_register" ~bytes:32
                  (fun () -> K.Sndcore.snd_card_register card)))
      in
      if rc = 0 then Ok a else Error rc

(* --- power management --- *)

let suspend a =
  Driver_env.upcall a.env ~name:"ens1371_suspend" ~bytes:adapter_wire_bytes
    (fun () ->
      (* silence the DAC; period interrupts stop with it *)
      outl a S.reg_control 0)

let resume a =
  Driver_env.upcall a.env ~name:"ens1371_resume" ~bytes:adapter_wire_bytes
    (fun () ->
      (* the codec loses its registers across a power cycle *)
      init_codec a;
      if a.rate > 0 then outl a S.reg_src a.rate;
      (* playback that was running when we suspended picks back up *)
      if a.dac_on then outl a S.reg_control S.ctrl_dac2_en)

include Pci_family.Make (struct
  type nonrec adapter = adapter

  let name = driver
  let ids = [ (vendor_id, device_id) ]
  let slot a = a.slot
  let probe = probe

  let unbind a =
    K.Irq.free_irq a.irq;
    match a.card with Some c -> K.Sndcore.snd_card_free c | None -> ()

  let quiesce _ = ()
  let unloaded () = ()
  let suspend = suspend
  let resume = resume
end)

let () = K.Boot.on_reset @@ fun () -> Hashtbl.reset models

let substream t =
  match t.adapter.sub with
  | Some s -> s
  | None -> K.Panic.bug "ens1371: no substream"

let card t =
  match t.adapter.card with
  | Some c -> c
  | None -> K.Panic.bug "ens1371: no card"
