(* Device-stream golden test: the exact sequence of requests the stack
   issues to its device — every read with the image it returned, every
   write with its image, every flush, in issue order — for a fixed set of
   runs through the controller under the shipped rfsd policy.  Each run's
   stream is folded into stdlib [Digest]s (not [Checksum], so that a CRC
   bug cannot hide itself) and compared against two golden files:

   - device_stream.golden: the full stream, reads included;
   - device_writes.golden: the writes and flushes alone — the persistence
     stream, which is all that reaches the medium.

   A change that is meant to be invisible at the device (a faster encoder,
   a different buffering scheme) must pass both unchanged.  A change that
   moves only reads (when the shadow fetches a block) regenerates the
   full-stream golden and must still pass the write golden unchanged; a
   change to the on-disk protocol regenerates both:

     dune build test/test_devstream.exe
     ./_build/default/test/test_devstream.exe --print > test/device_stream.golden
     ./_build/default/test/test_devstream.exe --print-writes > test/device_writes.golden *)

module Base = Rae_basefs.Base
module Bug_registry = Rae_basefs.Bug_registry
module Controller = Rae_core.Controller
module Workload = Rae_workload.Workload
module Disk = Rae_block.Disk
module Device = Rae_block.Device

let nblocks = 8192
let ninodes = 1024
let ops_per_run = 1500
let golden_file = "device_stream.golden"
let writes_golden_file = "device_writes.golden"

(* [digest]/[requests] cover every request; [wdigest]/[wrequests] only
   the writes and flushes. *)
type stream = {
  mutable digest : Digest.t;
  mutable requests : int;
  mutable wdigest : Digest.t;
  mutable wrequests : int;
}

let record st kind blk image =
  let img = match image with Some b -> Digest.bytes b | None -> "" in
  st.digest <- Digest.string (Printf.sprintf "%s%c%d:%s" st.digest kind blk img);
  st.requests <- st.requests + 1;
  if kind <> 'R' then begin
    st.wdigest <- Digest.string (Printf.sprintf "%s%c%d:%s" st.wdigest kind blk img);
    st.wrequests <- st.wrequests + 1
  end

let logging st (d : Device.t) : Device.t =
  {
    d with
    dev_read =
      (fun blk ->
        let b = d.dev_read blk in
        record st 'R' blk (Some b);
        b);
    dev_write =
      (fun blk data ->
        record st 'W' blk (Some data);
        d.dev_write blk data);
    dev_flush =
      (fun () ->
        record st 'F' 0 None;
        d.dev_flush ());
  }

let rfsd_policy = { Controller.default_policy with Controller.ckpt_enabled = true }

(* mkfs and mount go through the logged device too: both are part of the
   stream a deployment issues. *)
let run ?(bugs = []) ops =
  let st = { digest = ""; requests = 0; wdigest = ""; wrequests = 0 } in
  let disk =
    Disk.create ~latency:Disk.zero_latency ~block_size:Rae_format.Layout.block_size ~nblocks ()
  in
  let dev = logging st (Device.of_disk disk) in
  (match Base.mkfs dev ~ninodes () with Ok () -> () | Error m -> failwith ("mkfs: " ^ m));
  let bugs =
    Bug_registry.arm ~rng:(Rae_util.Rng.create 9L) (List.filter_map Bug_registry.find bugs)
  in
  let base = match Base.mount ~bugs dev with Ok b -> b | Error m -> failwith ("mount: " ^ m) in
  let ctl = Controller.make ~policy:rfsd_policy ~device:dev base in
  List.iter (fun op -> ignore (Controller.exec ctl op)) ops;
  ignore (Base.unmount (Controller.base ctl));
  let recoveries = (Controller.stats ctl).Controller.recoveries in
  ( (Digest.to_hex st.digest, st.requests, recoveries),
    (Digest.to_hex st.wdigest, st.wrequests, recoveries) )

let runs =
  let rng seed = Rae_util.Rng.create seed in
  List.mapi
    (fun i p ->
      let ops () = Workload.ops p (rng (Int64.of_int (i + 1))) ~count:ops_per_run in
      (Workload.profile_name p, fun () -> run (ops ())))
    Workload.all_profiles
  @ [
      ( "metadata-armed",
        fun () ->
          run ~bugs:[ "rename-race-panic"; "crafted-name-panic" ]
            (Workload.ops Workload.Metadata (rng 42L) ~count:(4 * ops_per_run)) );
      ("uniform", fun () -> run (Workload.uniform (rng 7L) ~count:ops_per_run));
    ]

let line name (digest, requests, recoveries) =
  Printf.sprintf "%s %s %d %d" name digest requests recoveries

let read_golden file =
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | l -> (
        match String.index_opt l ' ' with
        | Some i -> go ((String.sub l 0 i, l) :: acc)
        | None -> go acc)
    | exception End_of_file ->
        close_in ic;
        acc
  in
  go []

(* Each run is executed once; both suites read its memoized result. *)
let results = List.map (fun (name, f) -> (name, lazy (f ()))) runs

let test_run ~file ~what pick name r () =
  let golden = read_golden file in
  match List.assoc_opt name golden with
  | None -> Alcotest.failf "%s: no golden line in %s" name file
  | Some want -> Alcotest.(check string) (name ^ " " ^ what) want (line name (pick (Lazy.force r)))

let () =
  let print pick = List.iter (fun (name, r) -> print_endline (line name (pick (Lazy.force r)))) results in
  if Array.mem "--print" Sys.argv then print fst
  else if Array.mem "--print-writes" Sys.argv then print snd
  else
    let suite ~file ~what pick =
      List.map
        (fun (name, r) -> Alcotest.test_case name `Quick (test_run ~file ~what pick name r))
        results
    in
    Alcotest.run "rae_devstream"
      [
        ("devstream", suite ~file:golden_file ~what:"device stream" fst);
        ("devstream-writes", suite ~file:writes_golden_file ~what:"write and flush stream" snd);
      ]
