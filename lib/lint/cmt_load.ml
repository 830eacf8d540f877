(* Load dune-emitted .cmt files (typed ASTs) via compiler-libs.  The
   loader is deliberately forgiving: a cmt written by a different
   compiler, or one holding an interface instead of an implementation,
   is skipped with a note rather than aborting the whole run. *)

type unit_info = {
  ui_unit : string;  (* normalized unit name, e.g. "Rae_shadowfs.Shadow" *)
  ui_library : string option;  (* "shadowfs" for "Rae_shadowfs.Shadow" *)
  ui_source : string;  (* compile-time path, e.g. "lib/shadowfs/shadow.ml" *)
  ui_imports : string list;  (* normalized imported unit names *)
  ui_structure : Typedtree.structure option;
}

(* "Rae_block__Device" -> "Rae_block.Device" *)
let normalize name =
  let n = String.length name in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && name.[!i] = '_' && name.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b name.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* Library owning a normalized unit name: the first path component,
   lowercased, with the wrapping "rae_" prefix dropped.
   "Rae_shadowfs.Shadow" -> "shadowfs"; "Lint_fixtures.Bad" ->
   "lint_fixtures"; "Stdlib.List" -> "stdlib". *)
let library_of_unit unit =
  let head = match String.index_opt unit '.' with Some i -> String.sub unit 0 i | None -> unit in
  if head = "" then None
  else
    let head = String.lowercase_ascii head in
    if String.starts_with ~prefix:"rae_" head then
      Some (String.sub head 4 (String.length head - 4))
    else Some head

let load_cmt path =
  match Cmt_format.read_cmt path with
  | exception exn -> Error (Printf.sprintf "%s: %s" path (Printexc.to_string exn))
  | cmt ->
      let unit = normalize cmt.Cmt_format.cmt_modname in
      let source =
        match cmt.Cmt_format.cmt_sourcefile with Some s -> s | None -> path
      in
      let imports =
        List.filter_map
          (fun (name, _) -> if name = cmt.Cmt_format.cmt_modname then None else Some (normalize name))
          cmt.Cmt_format.cmt_imports
      in
      let structure =
        match cmt.Cmt_format.cmt_annots with
        | Cmt_format.Implementation str -> Some str
        | _ -> None
      in
      Ok
        {
          ui_unit = unit;
          ui_library = library_of_unit unit;
          ui_source = source;
          ui_imports = imports;
          ui_structure = structure;
        }

(* Recursively collect *.cmt under [dirs] (dune hides them in dot-dirs
   like .rae_util.objs, so dot-directories are descended into).  Dune
   declares each .cmt under [byte/]; ocamlopt run with -bin-annot also
   leaves a copy under [native/] until dune deletes it at the end of the
   build, so a scan that overlaps a build would load every unit twice.
   [native/] directories are skipped. *)
let find_cmts dirs =
  let out = ref [] in
  let rec walk path =
    match Sys.is_directory path with
    | exception Sys_error _ -> ()
    | true when String.equal (Filename.basename path) "native" -> ()
    | true ->
        let entries = try Sys.readdir path with Sys_error _ -> [||] in
        Array.iter (fun e -> walk (Filename.concat path e)) entries
    | false -> if Filename.check_suffix path ".cmt" then out := path :: !out
  in
  List.iter walk dirs;
  List.sort String.compare !out

type load_result = { units : unit_info list; skipped : string list; files : int }

let scan dirs =
  let files = find_cmts dirs in
  let units, skipped =
    List.fold_left
      (fun (units, skipped) f ->
        match load_cmt f with
        | Ok u -> (u :: units, skipped)
        | Error msg -> (units, msg :: skipped))
      ([], []) files
  in
  { units = List.rev units; skipped = List.rev skipped; files = List.length files }
