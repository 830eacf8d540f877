(* Interprocedural effect inference: one cross-unit fixpoint over the
   call graph assigning every definition an effect signature —

     raw-write      touches a raw block-write sink (directly or via call)
     raw-flush      touches a raw flush/barrier sink
     bypass-write   originates a raw write outside the sanctioned
                    writers (the def itself references the sink and is
                    neither a [persist_writers] entry nor exempted)
     bypass-flush   same for flush
     journal-append opens/appends a journal transaction
     journal-commit makes a transaction durable
     may-raise      the extension constructors the def can raise,
                    transitively

   plus, for the purity rule, the shortest call-path distance from the
   def to every reachable purity sink (with the next hop recorded, so
   witness chains can be reconstructed without re-running a search).

   Monotone worklist fixpoint: bits and raise-sets only grow, sink
   distances only shrink, so termination is structural.  Callee effects
   propagate unconditionally except the bypass bits, which exist to
   place blame: they stay on the originating definition. *)

module S = Set.Make (String)

let b_raw_write = 1
let b_raw_flush = 2
let b_bypass_write = 4
let b_bypass_flush = 8
let b_j_append = 16
let b_j_commit = 32

(* Callee-propagated subset (bypass stays home). *)
let propagated = b_raw_write lor b_raw_flush lor b_j_append lor b_j_commit

let effect_names bits =
  List.filter_map
    (fun (b, n) -> if bits land b <> 0 then Some n else None)
    [
      (b_raw_write, "raw-write"); (b_raw_flush, "raw-flush");
      (b_bypass_write, "bypass-write"); (b_bypass_flush, "bypass-flush");
      (b_j_append, "journal-append"); (b_j_commit, "journal-commit");
    ]
  [@@ocamlformat "disable"]

type sinkpath = { sp_dist : int; sp_via : string option }

type summary = {
  mutable bits : int;
  mutable raises : S.t;
  mutable sinks : (string * sinkpath) list;  (* concrete sink name -> shortest path *)
}

type t = {
  cfg : Lintcfg.t;
  summaries : (string, summary) Hashtbl.t;
  unit_attrs : (string, string list) Hashtbl.t;
}

let summary t name = Hashtbl.find_opt t.summaries name
let may_raise t name = match summary t name with Some s -> S.elements s.raises | None -> []
let has s bit = s.bits land bit <> 0

(* [@@lint_exempt scope] on the def, or [@@@lint_exempt scope] on its
   unit; scope "all" covers everything. *)
let def_exempt t scope (d : Analysis.def) =
  let covers l = List.mem scope l || List.mem "all" l in
  covers d.Analysis.d_attrs
  ||
  match Hashtbl.find_opt t.unit_attrs d.Analysis.d_unit with
  | Some l -> covers l
  | None -> false

let is_allowed_writer t (d : Analysis.def) =
  Lintcfg.name_in_list t.cfg.Lintcfg.persist_writers d.Analysis.d_name
  || def_exempt t "persist-order" d

let rec iter_tree f (tr : Analysis.ptree) =
  match tr with
  | Analysis.P_seq l | Analysis.P_alt l -> List.iter (iter_tree f) l
  | Analysis.P_try (b, hs) ->
      iter_tree f b;
      List.iter (iter_tree f) hs
  | Analysis.P_local (_, b) -> iter_tree f b
  | Analysis.P_ref _ | Analysis.P_lit _ | Analysis.P_field _ -> f tr

let purity_sink_match (cfg : Lintcfg.t) name = Lintcfg.name_in_list cfg.Lintcfg.purity_sinks name

let infer (cfg : Lintcfg.t) (analyses : Analysis.unit_analysis list) (graph : Analysis.graph) =
  let unit_attrs = Hashtbl.create 32 in
  List.iter
    (fun (a : Analysis.unit_analysis) ->
      if a.Analysis.a_attrs <> [] then Hashtbl.replace unit_attrs a.Analysis.a_unit a.Analysis.a_attrs)
    analyses;
  let summaries = Hashtbl.create 1024 in
  let t = { cfg; summaries; unit_attrs } in
  let get name =
    match Hashtbl.find_opt summaries name with
    | Some s -> s
    | None ->
        let s = { bits = 0; raises = S.empty; sinks = [] } in
        Hashtbl.replace summaries name s;
        s
  in
  (* Direct (intra-def) effects. *)
  Hashtbl.iter
    (fun name (d : Analysis.def) ->
      let s = get name in
      let allowed = is_allowed_writer t d in
      List.iter
        (fun (r, _) ->
          if Lintcfg.name_in_list cfg.Lintcfg.persist_raw_sinks r then begin
            s.bits <- s.bits lor b_raw_write;
            if not allowed then s.bits <- s.bits lor b_bypass_write
          end;
          if Lintcfg.name_in_list cfg.Lintcfg.persist_flush_sinks r then begin
            s.bits <- s.bits lor b_raw_flush;
            if not allowed then s.bits <- s.bits lor b_bypass_flush
          end;
          if Lintcfg.name_in_list cfg.Lintcfg.journal_append_fns r then
            s.bits <- s.bits lor b_j_append;
          if Lintcfg.name_in_list cfg.Lintcfg.journal_commit_fns r then
            s.bits <- s.bits lor b_j_commit)
        d.Analysis.d_refs;
      (* Reading a device function field is a raw write/flush in waiting:
         crashsim/fault grab [t.dev_write] and call it. *)
      iter_tree
        (fun n ->
          match n with
          | Analysis.P_field (f, _) ->
              if List.mem f cfg.Lintcfg.persist_sink_fields then begin
                s.bits <- s.bits lor b_raw_write;
                if not allowed then s.bits <- s.bits lor b_bypass_write
              end;
              if List.mem f cfg.Lintcfg.persist_flush_fields then begin
                s.bits <- s.bits lor b_raw_flush;
                if not allowed then s.bits <- s.bits lor b_bypass_flush
              end
          | _ -> ())
        d.Analysis.d_tree;
      s.raises <- S.union s.raises (S.of_list d.Analysis.d_raises))
    graph.Analysis.nodes;
  (* Reverse edges: callee def -> calling defs. *)
  let callers : (string, string list) Hashtbl.t = Hashtbl.create 1024 in
  Hashtbl.iter
    (fun name (d : Analysis.def) ->
      List.iter
        (fun (r, _) ->
          if Hashtbl.mem graph.Analysis.nodes r then
            Hashtbl.replace callers r (name :: Option.value ~default:[] (Hashtbl.find_opt callers r)))
        d.Analysis.d_refs)
    graph.Analysis.nodes;
  (* Worklist: re-derive a def's summary from its callees; on change,
     requeue its callers. *)
  let queue = Queue.create () in
  let queued : (string, unit) Hashtbl.t = Hashtbl.create 1024 in
  let enqueue n =
    if not (Hashtbl.mem queued n) then begin
      Hashtbl.replace queued n ();
      Queue.add n queue
    end
  in
  Hashtbl.iter (fun name _ -> enqueue name) graph.Analysis.nodes;
  let sink_add s sink dist via =
    match List.assoc_opt sink s.sinks with
    | Some sp when sp.sp_dist <= dist -> false
    | _ ->
        s.sinks <-
          (sink, { sp_dist = dist; sp_via = via }) :: List.remove_assoc sink s.sinks;
        true
  in
  while not (Queue.is_empty queue) do
    let name = Queue.take queue in
    Hashtbl.remove queued name;
    match Hashtbl.find_opt graph.Analysis.nodes name with
    | None -> ()
    | Some d ->
        let s = get name in
        let changed = ref false in
        List.iter
          (fun (r, _) ->
            if purity_sink_match cfg r then
              if sink_add s r 1 None then changed := true;
            match Hashtbl.find_opt summaries r with
            | Some cs when Hashtbl.mem graph.Analysis.nodes r ->
                let nb = s.bits lor (cs.bits land propagated) in
                if nb <> s.bits then begin
                  s.bits <- nb;
                  changed := true
                end;
                if not (S.subset cs.raises s.raises) then begin
                  s.raises <- S.union s.raises cs.raises;
                  changed := true
                end;
                List.iter
                  (fun (sink, sp) ->
                    if sink_add s sink (sp.sp_dist + 1) (Some r) then changed := true)
                  cs.sinks
            | _ -> ())
          d.Analysis.d_refs;
        if !changed then
          List.iter enqueue (Option.value ~default:[] (Hashtbl.find_opt callers name))
  done;
  t

(* Reconstruct the witness call chain def -> ... -> sink recorded by the
   shortest-distance fixpoint. *)
let sink_chain t name sink =
  let rec go name acc fuel =
    if fuel <= 0 then List.rev (sink :: acc)
    else
      match summary t name with
      | None -> List.rev (sink :: acc)
      | Some s -> (
          match List.assoc_opt sink s.sinks with
          | None | Some { sp_via = None; _ } -> List.rev (sink :: name :: acc)
          | Some { sp_via = Some via; _ } -> go via (name :: acc) (fuel - 1))
  in
  go name [] 64

let sink_distance t name sink =
  match summary t name with
  | None -> None
  | Some s -> Option.map (fun sp -> sp.sp_dist) (List.assoc_opt sink s.sinks)

let sinks_of t name = match summary t name with Some s -> List.map fst s.sinks | None -> []
