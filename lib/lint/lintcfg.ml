(* Lint configuration: the invariants the rules enforce, expressed as
   data so tests can aim the rules at fixture modules.  [default] encodes
   this repository's ground truth.

   Names are "normalized": compilation-unit separators ("__") are
   rewritten to ".", so [Rae_block__Device.write] and
   [Rae_block.Device.write] are the same name.  Entries with a trailing
   '.' are prefixes covering a whole module; field names are paths on a
   record type ("Rae_block.Device.t.dev_write"). *)

type t = {
  libraries : (string * string list) list;
      (* library -> allowed dependency libraries (self always allowed).
         Libraries absent from this table are not layer-checked, and
         imports of unknown libraries (stdlib, fmt, ...) are ignored. *)
  purity_roots : string list;
      (* normalized unit-name prefixes whose every definition must not
         reach a write-path sink (rule shadow-purity). *)
  purity_sinks : string list;
      (* normalized value names; a trailing '.' makes the entry a prefix
         covering a whole module. *)
  signal_exceptions : string list;
      (* normalized extension-constructor names that carry runtime-error
         signals; catch-all handlers that can absorb one are flagged. *)
  ondisk_types : string list;
      (* normalized type-constructor paths of on-disk structures for
         which polymorphic compare/equality is forbidden. *)
  partial_fns : (string * string) list;
      (* normalized stdlib value -> suggested replacement. *)
  exempt_units : string list;
      (* normalized unit-name prefixes exempt from the partial-call and
         swallow rules (test executables and the like). *)
  (* ---- persistence-ordering typestate (rule persist-order) ---- *)
  persist_raw_sinks : string list;
      (* raw (journal-bypassing) block-write value paths *)
  persist_flush_sinks : string list;  (* raw barrier/flush value paths *)
  persist_sink_fields : string list;
      (* record fields that ARE the raw write path when read (function
         fields of the device record), as "Type.field" *)
  persist_flush_fields : string list;
  journal_append_fns : string list;
      (* opening / appending to a journal transaction *)
  journal_commit_fns : string list;  (* making a transaction durable *)
  persist_writers : string list;
      (* def-name prefixes allowed to touch the raw sinks: the journal
         itself, the block layer the sinks live in, mkfs/fsck-repair
         (which write outside the journal protocol by design), and the
         ordered-mode data destage. *)
  (* ---- recovery-phase ordering (rule phase-order) ---- *)
  phase_protocols : (string * string list) list;
      (* phase-marker function -> declared phase order.  Every call of
         the marker with a literal phase name, on every path through the
         marker's unit, must respect this order; the first phase resets
         the automaton (a new recovery attempt). *)
}

(* Layering ground truth.  This intentionally duplicates the dune
   stanzas: the rule checks the compiled import tables, so a dependency
   smuggled in through a loosened stanza still fails the gate. *)
let default_libraries =
  [
    ("util", []);
    ("obs", [ "util" ]);
    ("vfs", [ "util" ]);
    ("block", [ "util"; "obs" ]);
    ("format", [ "util"; "vfs"; "block" ]);
    ("journal", [ "util"; "obs"; "block"; "format" ]);
    ("cache", [ "util"; "obs"; "vfs" ]);
    ("fsck", [ "util"; "vfs"; "block"; "format" ]);
    ("shadowfs", [ "util"; "obs"; "vfs"; "block"; "format"; "fsck" ]);
    ("specfs", [ "util"; "vfs"; "format" ]);
    ("basefs", [ "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache" ]);
    ("workload", [ "util"; "vfs" ]);
    ("bugstudy", [ "util" ]);
    ( "core",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "specfs"; "workload"
      ] );
    (* the crash engine sits beside srv at the top of the cone: it drives
       the whole stack (base mounts, controller recoveries, the shadow
       oracle) but nothing depends on it *)
    ( "crash",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "specfs"; "workload"; "core"
      ] );
    ("lint", [ "util"; "obs" ]);
    (* srv's direct deps are util/obs/vfs/core; the rest of core's allowed
       set rides along because the controller's interface pulls those cmis
       into srv's import tables. *)
    ( "srv",
      [
        "util"; "obs"; "vfs"; "block"; "format"; "journal"; "cache"; "fsck"; "basefs"; "shadowfs";
        "workload"; "core"
      ] );
  ]

(* Must match Rae_core.Controller.phase_names; test_lint pins the two
   lists together.  Declared here (not read from the controller) so the
   lint library keeps its shallow dependency cone — and so a drive-by
   edit to phase_names that forgets the declared protocol fails a test
   rather than silently re-teaching the rule. *)
let default_phase_order =
  [
    "contained-reboot";
    "shadow-attach";
    "fd-reinstate";
    "seed";
    "constrained-replay";
    "inflight-autonomous";
    "metadata-download";
    "resume";
    "delegated-sync";
  ]

let default =
  {
    libraries = default_libraries;
    (* Rae_core.Checkpoint holds a live warm shadow: it inherits the
       shadow's never-writes-to-disk obligation even though it lives in
       the core library. *)
    purity_roots = [ "Rae_shadowfs."; "Rae_fsck.Fsck"; "Rae_core.Checkpoint" ];
    purity_sinks =
      [
        "Rae_block.Device.write";
        "Rae_block.Device.flush";
        "Rae_block.Disk.write";
        "Rae_block.Disk.restore";
        "Rae_block.Disk.save";
        "Rae_block.Disk.corrupt_byte";
        "Rae_block.Blkmq.enqueue";
        "Rae_block.Blkmq.submit_write";
        "Rae_block.Blkmq.dispatch_one";
        "Rae_block.Blkmq.kick";
        "Rae_journal.Journal.";
        "Rae_basefs.Base.";
      ];
    signal_exceptions =
      [
        "Rae_shadowfs.Shadow.Violation";
        "Rae_basefs.Detector.Base_bug";
        "Rae_basefs.Detector.Hang";
        "Rae_basefs.Detector.Validation_failed";
      ];
    ondisk_types =
      [
        "Rae_format.Superblock.t";
        "Rae_format.Inode.t";
        "Rae_format.Dirent.entry";
        "Rae_format.Bitmap.t";
      ];
    partial_fns =
      [
        ("Stdlib.List.hd", "match on the list");
        ("Stdlib.List.tl", "match on the list");
        ("Stdlib.List.nth", "List.nth_opt");
        ("Stdlib.Option.get", "match on the option");
        ("Stdlib.Hashtbl.find", "Hashtbl.find_opt, or handle Not_found at the call site");
      ];
    exempt_units = [ "Dune.exe" ];
    (* Raw block writes: everything that reaches the medium without going
       through the journal's transaction protocol. *)
    persist_raw_sinks =
      [
        "Rae_block.Device.write";
        "Rae_block.Disk.write";
        "Rae_block.Disk.restore";
        "Rae_block.Disk.corrupt_byte";
        "Rae_block.Blkmq.submit_write";
        "Rae_block.Blkmq.enqueue";
      ];
    persist_flush_sinks = [ "Rae_block.Device.flush"; "Rae_block.Blkmq.kick" ];
    persist_sink_fields = [ "Rae_block.Device.t.dev_write" ];
    persist_flush_fields = [ "Rae_block.Device.t.dev_flush" ];
    journal_append_fns = [ "Rae_journal.Journal.begin_txn"; "Rae_journal.Journal.txn_write" ];
    journal_commit_fns = [ "Rae_journal.Journal.commit" ];
    persist_writers =
      [
        (* the sinks' own home *)
        "Rae_block.Device.";
        "Rae_block.Disk.";
        "Rae_block.Blkmq.";
        (* the one sanctioned writer of durable metadata *)
        "Rae_journal.Journal.";
        (* writes outside the journal protocol by design: formatting a
           fresh image, and fsck repair (runs before any journal is
           trusted, with its own flush barriers) *)
        "Rae_format.Mkfs.";
        "Rae_fsck.Repair.";
        (* ordered-mode data destage: data blocks reach the medium
           before the metadata commit that references them (base.ml
           commit_work), exactly like ext4 data=ordered *)
        "Rae_basefs.Base.commit_work";
        (* the crash enumerator materializes crash images by raw disk
           writes onto scratch disks — it *models* torn persistence, so
           it is outside the journal protocol by definition *)
        "Rae_crash.";
      ];
    phase_protocols = [ ("Rae_core.Controller.phase", default_phase_order) ];
  }

let unit_matches prefix unit =
  String.equal unit prefix
  || String.starts_with ~prefix unit
  || String.equal prefix (unit ^ ".")

let is_exempt t unit = List.exists (fun p -> unit_matches p unit) t.exempt_units

(* Value-name matcher shared by the sink/writer lists: a trailing '.'
   makes the entry a prefix covering a whole module. *)
let name_matches entry name =
  if String.length entry > 0 && entry.[String.length entry - 1] = '.' then
    String.starts_with ~prefix:entry name
  else String.equal entry name

let name_in_list l name = List.exists (fun e -> name_matches e name) l
