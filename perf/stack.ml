(* The system under test, built the way bin/rfsd.ml builds it, plus the
   stripped-down arms of the layer chain and the bench-side client. *)

open Rae_vfs
module Controller = Rae_core.Controller
module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Device = Rae_block.Device
module Disk = Rae_block.Disk
module Server = Rae_srv.Server
module Loopback = Rae_srv.Loopback
module Wire = Rae_srv.Wire
module Tracer = Rae_obs.Tracer
module Events = Rae_obs.Events
module Metrics = Rae_obs.Metrics

let now () = Int64.to_int (Monotonic_clock.now ())

(* ---- the shipped configuration (bin/rfsd.ml) ---- *)

let nblocks = 8192
let ninodes = 1024
let tracer_events = 65536
let recorder_events = 4096
let rfsd_policy = { Controller.default_policy with Controller.ckpt_enabled = true }
let server_config = Server.default_config

(* ---- bench-side device wrapper ---- *)

type dev_stats = {
  mutable reads : int;
  mutable writes : int;
  mutable flushes : int;
  mutable written : int;  (** bytes *)
  mutable dev_ns : int;  (** time inside device calls, when timed *)
}

let dev_stats () = { reads = 0; writes = 0; flushes = 0; written = 0; dev_ns = 0 }

(* Counts every call; with [spans], also times it and records a span. *)
let wrap ?spans st (d : Device.t) : Device.t =
  let call name f =
    match spans with
    | None -> f ()
    | Some tr ->
        Tracer.span_begin tr ~cat:"device" name;
        let t0 = now () in
        let r = f () in
        st.dev_ns <- st.dev_ns + (now () - t0);
        Tracer.span_end tr;
        r
  in
  {
    d with
    dev_read = (fun b -> st.reads <- st.reads + 1; call "dev.read" (fun () -> d.dev_read b));
    dev_write =
      (fun b data ->
        st.writes <- st.writes + 1;
        st.written <- st.written + Bytes.length data;
        call "dev.write" (fun () -> d.dev_write b data));
    dev_flush = (fun () -> st.flushes <- st.flushes + 1; call "dev.flush" d.dev_flush);
  }

(* ---- building ---- *)

type fs = {
  dev : Device.t;
  base : Base.t;
  ctl : Controller.t option;  (** [None] for the bare-base arm *)
  reg : Metrics.t option;  (** the rfsd variant's metrics registry *)
}

let device ?wrap_with () =
  let disk =
    Disk.create ~latency:Disk.zero_latency ~block_size:Rae_format.Layout.block_size ~nblocks ()
  in
  let dev = Device.of_disk disk in
  match wrap_with with Some f -> f dev | None -> dev

let mount ~bugs ~seed dev =
  (match Base.mkfs dev ~ninodes () with Ok () -> () | Error m -> failwith ("mkfs: " ^ m));
  let specs =
    List.map
      (fun id ->
        match Bug_registry.find id with Some s -> s | None -> failwith ("unknown bug " ^ id))
      bugs
  in
  let bugs = Bug_registry.arm ~rng:(Rae_util.Rng.create seed) specs in
  match Base.mount ~bugs dev with Ok b -> b | Error m -> failwith ("mount: " ^ m)

(* The controller variants of the chain. *)
type variant =
  | Bare  (** ckpt off, no observability *)
  | Ckpt  (** ckpt on, no observability *)
  | Rfsd  (** rfsd: ckpt on, bounded tracer and flight recorder, metrics *)

let controller variant dev base =
  match variant with
  | Bare -> Controller.make ~device:dev base
  | Ckpt -> Controller.make ~policy:rfsd_policy ~device:dev base
  | Rfsd ->
      let tracer = Tracer.create ~max_events:tracer_events () in
      let events = Events.create ~capacity:recorder_events () in
      Controller.make ~policy:rfsd_policy ~tracer ~events ~run_id:"bench" ~device:dev base

(* ---- the served stack and its split-phase clients ---- *)

type client = {
  ep : Loopback.endpoint;
  io : Rae_srv.Srv_client.io;
  enc : Wire.encoder;
  tx : Buffer.t;
  mutable rx : string;  (** undecoded reply bytes *)
  mutable req : int;  (** id of the request in flight *)
  mutable sent : string;  (** its encoded frame, for a Busy resend *)
  mutable reply : Op.outcome option;
  mutable notes : int;  (** Note_recovered frames seen *)
  mutable bytes : int;  (** wire bytes sent and received *)
  mutable busy : int;
}

type served = {
  fs : fs;
  ctl : Controller.t;
  server : Server.t;
  hub : Loopback.t;
  clients : client array;
  mutable pumps : int;
}

let pump sv =
  sv.pumps <- sv.pumps + 1;
  ignore (Loopback.pump sv.hub)

let send_frame c frame =
  Buffer.clear c.tx;
  Wire.encode_into c.enc frame c.tx;
  let s = Buffer.contents c.tx in
  c.sent <- s;
  c.bytes <- c.bytes + String.length s;
  c.io.Rae_srv.Srv_client.io_send s

let send_op c op =
  c.req <- c.req + 1;
  c.reply <- None;
  send_frame c (Wire.Op_req { req = c.req; corr = c.req; op })

(* Decode whatever the server sent this client; true when it held the
   handshake reply.  A Busy frame resends the request. *)
let receive c =
  let s = Loopback.recv c.ep in
  if s <> "" then begin
    c.bytes <- c.bytes + String.length s;
    c.rx <- (if c.rx = "" then s else c.rx ^ s)
  end;
  let buf = Bytes.unsafe_of_string c.rx in
  let len = Bytes.length buf in
  let pos = ref 0 and hello = ref false and stop = ref (len = 0) in
  while not !stop do
    match Wire.decode buf ~pos:!pos ~len:(len - !pos) with
    | Wire.Frame (frame, used) -> (
        pos := !pos + used;
        match frame with
        | Wire.Op_reply { req; outcome } when req = c.req -> c.reply <- Some outcome
        | Wire.Note_recovered _ -> c.notes <- c.notes + 1
        | Wire.Busy { req; _ } when req = c.req ->
            c.busy <- c.busy + 1;
            c.bytes <- c.bytes + String.length c.sent;
            c.io.Rae_srv.Srv_client.io_send c.sent
        | Wire.Hello_ok _ -> hello := true
        | _ -> c.reply <- Some (Error Errno.EPROTO))
    | Wire.Need_more -> stop := true
    | Wire.Fail _ ->
        c.reply <- Some (Error Errno.EPROTO);
        pos := len;
        stop := true
  done;
  c.rx <- (if !pos = 0 then c.rx else String.sub c.rx !pos (len - !pos));
  !hello

let client ep =
  {
    ep;
    io = Loopback.io ep;
    enc = Wire.encoder ();
    tx = Buffer.create 256;
    rx = "";
    req = 0;
    sent = "";
    reply = None;
    notes = 0;
    bytes = 0;
    busy = 0;
  }

(* Serve [fs] exactly as rfsd does (default server config, metrics
   registered) over the in-process transport, and attach the clients. *)
let serve (fs : fs) =
  let ctl = match fs.ctl with Some c -> c | None -> invalid_arg "serve: no controller" in
  let server = Server.create ~config:server_config ctl in
  let reg = match fs.reg with Some r -> r | None -> invalid_arg "serve: not the rfsd variant" in
  Server.register_obs reg server;
  Server.set_metrics_source server (fun () -> Metrics.to_prometheus reg);
  let hub = Loopback.create server in
  let clients = Array.init Gen.sessions (fun _ -> client (Loopback.connect hub)) in
  let sv = { fs; ctl; server; hub; clients; pumps = 0 } in
  Array.iter (fun c -> send_frame c (Wire.Hello { version = Wire.protocol_version })) clients;
  let attached = Array.make Gen.sessions false in
  let tries = ref 0 in
  while Array.exists not attached do
    incr tries;
    if !tries > 16 then failwith "serve: handshake did not complete";
    pump sv;
    Array.iteri (fun i c -> if receive c then attached.(i) <- true) clients
  done;
  sv

let max_busy_retries = 8

(* One closed-loop turn: every session sends its next request, the hub
   runs one scheduler turn, and each client decodes its reply.  [lat]
   receives each request's send-to-reply time. *)
let turn ?spans sv (ops : Op.t array) (lat : int array) (t_send : int array) =
  let span_begin name = match spans with Some tr -> Tracer.span_begin tr ~cat:"srv" name | None -> () in
  let span_end () = match spans with Some tr -> Tracer.span_end tr | None -> () in
  let clients = sv.clients in
  for s = 0 to Gen.sessions - 1 do
    t_send.(s) <- now ();
    span_begin "client.send";
    send_op clients.(s) ops.(s);
    span_end ()
  done;
  let pending = ref Gen.sessions and rounds = ref 0 in
  while !pending > 0 do
    span_begin "loopback.pump";
    pump sv;
    span_end ();
    incr rounds;
    for s = 0 to Gen.sessions - 1 do
      let c = clients.(s) in
      if Option.is_none c.reply then begin
        span_begin "client.reply";
        ignore (receive c);
        span_end ();
        if Option.is_none c.reply && !rounds > max_busy_retries then c.reply <- Some (Error Errno.EAGAIN);
        if Option.is_some c.reply then begin
          lat.(s) <- now () - t_send.(s);
          decr pending
        end
      end
    done
  done

let reply sv s = match sv.clients.(s).reply with Some o -> o | None -> Error Errno.EPROTO

(* Populate-time and direct-arm execution. *)
let exec_local (fs : fs) op =
  match fs.ctl with Some ctl -> Controller.exec ctl op | None -> Base.exec fs.base op

let exec_session (fs : fs) ~session op =
  match fs.ctl with
  | Some ctl -> Controller.exec_for ctl ~corr:0 ~session op
  | None -> Base.exec fs.base op

let build ?wrap_with ?variant ~bugs ~seed () =
  let dev = device ?wrap_with () in
  let base = mount ~bugs ~seed dev in
  let ctl = Option.map (fun v -> controller v dev base) variant in
  let reg =
    match (variant, ctl) with
    | Some Rfsd, Some c ->
        let reg = Metrics.create () in
        Controller.register_obs reg c;
        Some reg
    | _ -> None
  in
  { dev; base; ctl; reg }
