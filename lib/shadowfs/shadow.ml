open Rae_vfs
open Rae_format
module Device = Rae_block.Device

exception Violation of string

type config = { checks : bool; fsck_on_attach : bool; max_fds : int; fast_paths : bool }

let default_config = { checks = true; fsck_on_attach = false; max_fds = 1024; fast_paths = true }

type fdinfo = { fino : Types.ino; fflags : Types.open_flags }

(* In-memory index over one directory's dirent blocks: name -> entry, plus
   a memoized sorted name listing for readdir.  Built lazily from the
   (validated) blocks, then maintained incrementally by the dirent
   mutators, and dropped whenever the directory's inode is freed.

   [loc] maps each name to the logical directory block holding its slot,
   so removal touches exactly one block.  [free_hint] bounds the insert
   scan: every dir block strictly below it is known to have no free slot
   (inserts advance it past blocks they found full; removals lower it). *)
type dir_index = {
  by_name : (string, Dirent.entry) Hashtbl.t;
  loc : (string, int) Hashtbl.t;
  mutable free_hint : int;
  mutable sorted : string list option;
}

type t = {
  ov : Overlay.t;
  reader : Reader.t;
  geo : Layout.geometry;
  cfg : config;
  mutable sb : Superblock.t;
  ibm : Bitmap.t;
  bbm : Bitmap.t;
  fds : (int, fdinfo) Hashtbl.t;
  orphans : (int, unit) Hashtbl.t;
  mutable time : int64;
  mutable nchecks : int;
  (* Fast-path state (all bypassed when [cfg.fast_paths] is false).
     [gen] is the namespace generation: bumped on every dirent mutation
     and inode free, it guards [rcache] — a resolution cached under an
     older generation is never believed.  [icache] holds decoded inodes
     (coherent because [write_inode]/[free_ino] are the only writers);
     [dcache] holds per-directory {!dir_index}es.  [ino_hint]/[fd_hint]
     are lowest-free allocation hints: every id strictly below the hint
     is allocated.  [batch] marks an {!exec_constrained_window} in
     flight: mutation epilogues then defer superblock/bitmap write-back
     and summary checks to the end of the window ([sb_dirty],
     [ibm_dirty], [bbm_dirty] track what is pending). *)
  mutable gen : int;
  icache : (int, Inode.t) Hashtbl.t;
  dcache : (int, dir_index) Hashtbl.t;
  rcache : (string list * bool, int * int) Hashtbl.t;
  mutable ino_hint : int;
  mutable fd_hint : int;
  mutable batch : bool;
  mutable sb_dirty : bool;
  mutable ibm_dirty : bool;
  mutable bbm_dirty : bool;
}

let violation fmt = Format.kasprintf (fun s -> raise (Violation s)) fmt

(* A runtime check: counted, and fatal when it fails.  The failure message
   is only formatted on failure — the success path must not pay for
   [kasprintf] (it used to, and it dominated the cost of every check). *)
let check t cond fmt =
  if t.cfg.checks then begin
    t.nchecks <- t.nchecks + 1;
    if not cond then Format.kasprintf (fun msg -> raise (Violation msg)) fmt
    else Format.ikfprintf ignore Format.str_formatter fmt
  end
  else Format.ikfprintf ignore Format.str_formatter fmt

let dir_kind_code = Types.kind_code Types.Directory

(* ---- attach ---- *)

let mk_t ov reader config ~ibm ~bbm ~time =
  {
    ov;
    reader;
    geo = Reader.geometry reader;
    cfg = config;
    sb = reader.Reader.sb;
    ibm;
    bbm;
    fds = Hashtbl.create 64;
    orphans = Hashtbl.create 16;
    time;
    nchecks = 0;
    gen = 0;
    icache = Hashtbl.create 256;
    dcache = Hashtbl.create 64;
    rcache = Hashtbl.create 256;
    ino_hint = 1;
    fd_hint = 0;
    batch = false;
    sb_dirty = false;
    ibm_dirty = false;
    bbm_dirty = false;
  }

let attach ?(config = default_config) ?tracer dev =
  let ov = Overlay.create dev in
  let read blk = Overlay.read ov blk in
  if config.fsck_on_attach then begin
    let report =
      match tracer with
      | Some tr ->
          Rae_obs.Tracer.with_span tr ~cat:"recovery" "fsck" (fun () -> Rae_fsck.Fsck.check read)
      | None -> Rae_fsck.Fsck.check read
    in
    if not (Rae_fsck.Fsck.clean report) then
      Error
        (match Rae_fsck.Fsck.errors report with
        | [] -> "fsck rejected the image"
        | f :: _ -> Format.asprintf "fsck rejected the image: %a" Rae_fsck.Fsck.pp_finding f)
    else
      match Reader.attach read with
      | Error e -> Error (Reader.error_to_string e)
      | Ok reader -> (
          match (Reader.load_inode_bitmap reader, Reader.load_block_bitmap reader) with
          | Ok ibm, Ok bbm ->
              Ok (mk_t ov reader config ~ibm ~bbm ~time:reader.Reader.sb.Superblock.fs_time)
          | Error e, _ | _, Error e -> Error (Reader.error_to_string e))
  end
  else
    match Reader.attach read with
    | Error e -> Error (Reader.error_to_string e)
    | Ok reader -> (
        match (Reader.load_inode_bitmap reader, Reader.load_block_bitmap reader) with
        | Ok ibm, Ok bbm ->
            Ok (mk_t ov reader config ~ibm ~bbm ~time:reader.Reader.sb.Superblock.fs_time)
        | Error e, _ | _, Error e -> Error (Reader.error_to_string e))

(* ---- superblock / bitmap write-back (into the overlay) ---- *)

let flush_sb t =
  let sb =
    {
      t.sb with
      Superblock.fs_time = t.time;
      generation = Int64.add t.sb.Superblock.generation 1L;
      state = Superblock.Clean;
    }
  in
  t.sb <- sb;
  Overlay.write t.ov 0 (Superblock.encode sb)

let flush_bitmap t which =
  let bm, start =
    match which with
    | `Inode -> (t.ibm, t.geo.Layout.inode_bitmap_start)
    | `Block -> (t.bbm, t.geo.Layout.block_bitmap_start)
  in
  List.iteri (fun i b -> Overlay.write t.ov (start + i) b)
    (Bitmap.to_blocks bm ~block_size:Layout.block_size)

(* On the fast path a bitmap change only marks the bitmap dirty; the
   serialization into the overlay happens once per mutation (or once per
   fold window) instead of on every alloc/free.  Aborted mutations that
   allocated and then freed are net-zero: the overlay keeps its pre-op
   bitmap blocks, which equal the rolled-back in-memory bitmaps, so the
   op-boundary invariant "overlay == in-memory" still holds. *)
let mark_bitmap_dirty t which =
  if t.cfg.fast_paths then
    match which with
    | `Inode -> t.ibm_dirty <- true
    | `Block -> t.bbm_dirty <- true
  else flush_bitmap t which

let flush_dirty_bitmaps t =
  if t.ibm_dirty then begin
    t.ibm_dirty <- false;
    flush_bitmap t `Inode
  end;
  if t.bbm_dirty then begin
    t.bbm_dirty <- false;
    flush_bitmap t `Block
  end

(* Post-mutation summary invariant: superblock counters must agree with the
   bitmaps — the "validate upon sync" style check the base skips. *)
let check_summaries t =
  if t.cfg.checks then begin
    check t
      (Bitmap.count_free t.ibm = t.sb.Superblock.free_inodes)
      "superblock free_inodes diverges from the inode bitmap";
    check t
      (Bitmap.count_free t.bbm = t.sb.Superblock.free_blocks)
      "superblock free_blocks diverges from the block bitmap"
  end

(* ---- inode IO ---- *)

let inode_allocated t ino = ino >= 1 && ino <= t.geo.Layout.ninodes && Bitmap.test t.ibm ino

let read_inode_slow t ino =
  check t (inode_allocated t ino) "read of unallocated inode %d" ino;
  let blk, pos = Layout.inode_location t.geo ino in
  let b = Overlay.read t.ov blk in
  if t.cfg.checks then begin
    t.nchecks <- t.nchecks + 1;
    match Inode.decode b ~pos ~ino with
    | Ok inode -> inode
    | Error e -> violation "inode %d: %s" ino (Inode.error_to_string e)
  end
  else Inode.decode_nocheck b ~pos

(* The cache stays coherent because [write_inode] and [free_ino] are the
   only writers of inode slots, and both update it.  Nothing mutates a
   cached record in place: every updater builds [{ inode with ... }] and
   copies the [direct] array before changing it. *)
let read_inode t ino =
  if not t.cfg.fast_paths then read_inode_slow t ino
  else
    match Hashtbl.find_opt t.icache ino with
    | Some inode -> inode
    | None ->
        let inode = read_inode_slow t ino in
        Hashtbl.replace t.icache ino inode;
        inode

let write_inode t ino inode =
  let blk, pos = Layout.inode_location t.geo ino in
  Overlay.rmw t.ov blk (fun b ->
      Inode.encode inode ~ino b ~pos;
      true);
  if t.cfg.fast_paths then Hashtbl.replace t.icache ino inode

let clear_inode_slot t ino =
  let blk, pos = Layout.inode_location t.geo ino in
  Overlay.rmw t.ov blk (fun b ->
      Bytes.fill b pos Layout.inode_size '\000';
      true)

(* ---- allocation ---- *)

(* Namespace generation bump: invalidates every cached resolution. *)
let bump_gen t = t.gen <- t.gen + 1

(* Still exact lowest-free — the spec/shadow/base agreement depends on
   that — but the scan starts at the hint, below which every inode is
   known allocated.  Advancing the hint to the found id is safe even if
   the caller aborts and never claims it: the invariant only covers ids
   strictly below the hint. *)
let alloc_ino t =
  let from = if t.cfg.fast_paths then max 1 t.ino_hint else 1 in
  match Bitmap.find_free t.ibm ~from with
  | None -> Error Errno.ENOSPC
  | Some ino ->
      (match Bitmap.set_result t.ibm ino with
      | Ok () -> ()
      | Error msg -> violation "inode allocation: %s" msg);
      t.ino_hint <- ino;
      t.sb <- { t.sb with Superblock.free_inodes = t.sb.Superblock.free_inodes - 1 };
      mark_bitmap_dirty t `Inode;
      Ok ino

let free_ino t ino =
  (match Bitmap.clear_result t.ibm ino with
  | Ok () -> ()
  | Error msg -> violation "inode free: %s" msg);
  if ino < t.ino_hint then t.ino_hint <- ino;
  Hashtbl.remove t.icache ino;
  Hashtbl.remove t.dcache ino;
  bump_gen t;
  t.sb <- { t.sb with Superblock.free_inodes = t.sb.Superblock.free_inodes + 1 };
  clear_inode_slot t ino;
  mark_bitmap_dirty t `Inode

(* Next-fit, mirroring the base's allocator discipline (the rotor starts
   at zero on attach, so a fresh shadow is deterministic).  Constrained-
   mode replay compares operation outcomes, which never expose physical
   block numbers, so the shadow is free to place data wherever its own
   bitmap permits. *)
let alloc_block t =
  match Bitmap.find_free_next t.bbm ~lo:t.geo.Layout.data_start with
  | None -> Error Errno.ENOSPC
  | Some blk ->
      (match Bitmap.set_result t.bbm blk with
      | Ok () -> ()
      | Error msg -> violation "block allocation: %s" msg);
      t.sb <- { t.sb with Superblock.free_blocks = t.sb.Superblock.free_blocks - 1 };
      (* A fresh block must read as zeroes regardless of stale medium
         content. *)
      Overlay.write t.ov blk (Bytes.make Layout.block_size '\000');
      mark_bitmap_dirty t `Block;
      Ok blk

let free_block t blk =
  check t (Reader.valid_data_block t.geo blk) "freeing non-data block %d" blk;
  (match Bitmap.clear_result t.bbm blk with
  | Ok () -> ()
  | Error msg -> violation "block free: %s" msg);
  t.sb <- { t.sb with Superblock.free_blocks = t.sb.Superblock.free_blocks + 1 };
  mark_bitmap_dirty t `Block

(* ---- logical->physical block mapping ---- *)

let ppb = Layout.pointers_per_block

let get_block t inode idx =
  match Reader.file_block t.reader inode idx with
  | Ok blk -> blk
  | Error e -> violation "%s" (Reader.error_to_string e)

let ptr_get b i = Rae_util.Codec.get_u32_int b (4 * i)
let ptr_set b i v = Rae_util.Codec.set_u32_int b (4 * i) v

(* Point logical block [idx] of [inode] at [phys], allocating indirect
   blocks as needed.  Returns the updated inode (not yet written). *)
let set_block t inode idx phys =
  if idx < 0 || idx >= Layout.max_file_blocks then violation "set_block: index %d out of range" idx;
  if idx < Layout.direct_pointers then begin
    let direct = Array.copy inode.Inode.direct in
    direct.(idx) <- phys;
    Ok { inode with Inode.direct }
  end
  else
    let idx1 = idx - Layout.direct_pointers in
    if idx1 < ppb then
      let ensure =
        if inode.Inode.indirect = 0 then Result.map (fun b -> (b, { inode with Inode.indirect = b })) (alloc_block t)
        else Ok (inode.Inode.indirect, inode)
      in
      Result.map
        (fun (iblk, inode) ->
          Overlay.rmw t.ov iblk (fun b ->
              ptr_set b idx1 phys;
              true);
          inode)
        ensure
    else
      let idx2 = idx1 - ppb in
      let ensure_d =
        if inode.Inode.double_indirect = 0 then
          Result.map (fun b -> (b, { inode with Inode.double_indirect = b })) (alloc_block t)
        else Ok (inode.Inode.double_indirect, inode)
      in
      Result.bind ensure_d (fun (dblk, inode) ->
          let db = Overlay.read t.ov dblk in
          let l1_index = idx2 / ppb in
          let ensure_l1 =
            let l1 = ptr_get db l1_index in
            if l1 = 0 then
              Result.map
                (fun b ->
                  ptr_set db l1_index b;
                  Overlay.write t.ov dblk db;
                  b)
                (alloc_block t)
            else Ok l1
          in
          Result.map
            (fun l1blk ->
              let lb = Overlay.read t.ov l1blk in
              ptr_set lb (idx2 mod ppb) phys;
              Overlay.write t.ov l1blk lb;
              inode)
            ensure_l1)

(* Free all data blocks with logical index >= keep, then prune the pointer
   structures.  Returns the updated inode. *)
let shrink_blocks t inode ~keep =
  let old_n = Inode.blocks_for_size inode.Inode.size in
  for idx = keep to old_n - 1 do
    let phys = get_block t inode idx in
    if phys <> 0 then free_block t phys
  done;
  (* Direct pointers. *)
  let direct = Array.copy inode.Inode.direct in
  for idx = max keep 0 to Layout.direct_pointers - 1 do
    if idx >= keep then direct.(idx) <- 0
  done;
  let inode = { inode with Inode.direct } in
  (* Single indirect. *)
  let base1 = Layout.direct_pointers in
  let inode =
    if inode.Inode.indirect = 0 then inode
    else if keep <= base1 then begin
      free_block t inode.Inode.indirect;
      { inode with Inode.indirect = 0 }
    end
    else begin
      Overlay.rmw t.ov inode.Inode.indirect (fun b ->
          for i = keep - base1 to ppb - 1 do
            ptr_set b i 0
          done;
          true);
      inode
    end
  in
  (* Double indirect. *)
  let base2 = Layout.direct_pointers + ppb in
  let inode =
    if inode.Inode.double_indirect = 0 then inode
    else begin
      let db = Overlay.read t.ov inode.Inode.double_indirect in
      let keep2 = max 0 (keep - base2) in
      for i = 0 to ppb - 1 do
        let l1 = ptr_get db i in
        if l1 <> 0 then begin
          if i * ppb >= keep2 then begin
            free_block t l1;
            ptr_set db i 0
          end
          else if (i + 1) * ppb > keep2 then
            Overlay.rmw t.ov l1 (fun lb ->
                for j = keep2 - (i * ppb) to ppb - 1 do
                  ptr_set lb j 0
                done;
                true)
        end
      done;
      if keep <= base2 then begin
        free_block t inode.Inode.double_indirect;
        { inode with Inode.double_indirect = 0 }
      end
      else begin
        Overlay.write t.ov inode.Inode.double_indirect db;
        inode
      end
    end
  in
  inode

(* ---- file data IO ---- *)

let read_range t inode ~off ~len =
  let size = inode.Inode.size in
  if off >= size then ""
  else begin
    let len = min len (size - off) in
    let buf = Bytes.create len in
    let pos = ref 0 in
    while !pos < len do
      let abs = off + !pos in
      let idx = abs / Layout.block_size and boff = abs mod Layout.block_size in
      let chunk = min (Layout.block_size - boff) (len - !pos) in
      let phys = get_block t inode idx in
      if phys = 0 then Bytes.fill buf !pos chunk '\000'
      else Overlay.view t.ov phys (fun b -> Bytes.blit b boff buf !pos chunk);
      pos := !pos + chunk
    done;
    Bytes.to_string buf
  end

(* Write [data] at byte offset [off]; allocates blocks and extends the
   size.  Returns the updated inode or ENOSPC. *)
let write_range t inode ~off data =
  let len = String.length data in
  let rec go inode pos =
    if pos >= len then Ok inode
    else begin
      let abs = off + pos in
      let idx = abs / Layout.block_size and boff = abs mod Layout.block_size in
      let chunk = min (Layout.block_size - boff) (len - pos) in
      let phys = get_block t inode idx in
      let with_block =
        if phys <> 0 then Ok (inode, phys)
        else
          Result.bind (alloc_block t) (fun blk ->
              Result.map (fun inode -> (inode, blk)) (set_block t inode idx blk))
      in
      match with_block with
      | Error e -> Error e
      | Ok (inode, phys) ->
          Overlay.rmw t.ov phys (fun b ->
              Bytes.blit_string data pos b boff chunk;
              true);
          go inode (pos + chunk)
    end
  in
  Result.map (fun inode -> { inode with Inode.size = max inode.Inode.size (off + len) }) (go inode 0)

(* ---- directory operations ---- *)

let dir_nblocks inode = Inode.blocks_for_size inode.Inode.size

let dir_phys t inode idx =
  let phys = get_block t inode idx in
  check t (phys <> 0) "directory has a hole at block %d" idx;
  if phys = 0 then violation "directory hole at block %d" idx;
  phys

let dir_block t inode idx =
  let phys = dir_phys t inode idx in
  (phys, Overlay.read t.ov phys)

let dir_entries_of_block t b =
  if t.cfg.checks then begin
    t.nchecks <- t.nchecks + 1;
    match Dirent.list b with
    | Ok entries -> entries
    | Error e -> violation "directory block: %s" (Dirent.error_to_string e)
  end
  else Dirent.list_nocheck b

let dir_scan_find t inode name =
  let n = dir_nblocks inode in
  let rec go idx =
    if idx >= n then None
    else
      let _, b = dir_block t inode idx in
      match List.find_opt (fun e -> String.equal e.Dirent.name name) (dir_entries_of_block t b) with
      | Some e -> Some e
      | None -> go (idx + 1)
  in
  go 0

let dir_list t inode =
  let n = dir_nblocks inode in
  let rec go idx acc =
    if idx >= n then acc
    else
      let _, b = dir_block t inode idx in
      go (idx + 1) (acc @ dir_entries_of_block t b)
  in
  go 0 []

(* The lazily built per-directory index.  The backing blocks are validated
   by [dir_entries_of_block] at build time; afterwards they only change
   through the mutators below, each of which updates the index in step. *)
let dir_index t ~dino dinode =
  match Hashtbl.find_opt t.dcache dino with
  | Some ix -> ix
  | None ->
      let by_name = Hashtbl.create 16 in
      let loc = Hashtbl.create 16 in
      let n = dir_nblocks dinode in
      for idx = 0 to n - 1 do
        let _, b = dir_block t dinode idx in
        List.iter
          (fun e ->
            Hashtbl.replace by_name e.Dirent.name e;
            Hashtbl.replace loc e.Dirent.name idx)
          (dir_entries_of_block t b)
      done;
      let ix = { by_name; loc; free_hint = 0; sorted = None } in
      Hashtbl.replace t.dcache dino ix;
      ix

let dir_find t ~dino dinode name =
  if t.cfg.fast_paths then Hashtbl.find_opt (dir_index t ~dino dinode).by_name name
  else dir_scan_find t dinode name

let dir_is_empty t ~dino dinode =
  if t.cfg.fast_paths then begin
    let exception Nonempty in
    let ix = dir_index t ~dino dinode in
    try
      Hashtbl.iter
        (fun name _ -> if name <> "." && name <> ".." then raise Nonempty)
        ix.by_name;
      true
    with Nonempty -> false
  end
  else List.for_all (fun e -> e.Dirent.name = "." || e.Dirent.name = "..") (dir_list t dinode)

(* Names of a directory, "." and ".." excluded, sorted — the readdir view.
   Memoized on the index until the next entry mutation. *)
let dir_names t ~dino dinode =
  if t.cfg.fast_paths then begin
    let ix = dir_index t ~dino dinode in
    match ix.sorted with
    | Some names -> names
    | None ->
        let names =
          Hashtbl.fold
            (fun name _ acc -> if name = "." || name = ".." then acc else name :: acc)
            ix.by_name []
          |> List.sort compare
        in
        ix.sorted <- Some names;
        names
  end
  else
    dir_list t dinode
    |> List.filter_map (fun e ->
           if e.Dirent.name = "." || e.Dirent.name = ".." then None else Some e.Dirent.name)
    |> List.sort compare

(* Index maintenance for the dirent mutators: keep [by_name] in step when
   an index exists (else it will be rebuilt lazily from the blocks), and
   always bump the namespace generation. *)
let note_entry_added t ~dino entry =
  bump_gen t;
  match Hashtbl.find_opt t.dcache dino with
  | None -> ()
  | Some ix ->
      Hashtbl.replace ix.by_name entry.Dirent.name entry;
      ix.sorted <- None

let note_entry_removed t ~dino name =
  bump_gen t;
  match Hashtbl.find_opt t.dcache dino with
  | None -> ()
  | Some ix ->
      Hashtbl.remove ix.by_name name;
      ix.sorted <- None

(* Insert an entry, growing the directory by one block if necessary.
   Returns the updated directory inode.  On the fast path the scan for a
   free slot starts at the index's [free_hint] rather than block 0 — a
   growing directory would otherwise re-walk every full block on every
   insert, which turned one-directory workloads quadratic. *)
let dir_insert t ~dino dinode ~name ~ino ~kind_code =
  let n = dir_nblocks dinode in
  let ix = if t.cfg.fast_paths then Some (dir_index t ~dino dinode) else None in
  let placed idx =
    match ix with
    | Some ix ->
        ix.free_hint <- idx;
        Hashtbl.replace ix.loc name idx
    | None -> ()
  in
  let rec try_existing idx =
    if idx >= n then None
    else begin
      let phys = dir_phys t dinode idx in
      let inserted = ref false in
      Overlay.rmw t.ov phys (fun b ->
          inserted := Dirent.insert b ~name ~ino ~kind_code;
          !inserted);
      if !inserted then begin
        placed idx;
        Some dinode
      end
      else try_existing (idx + 1)
    end
  in
  let noted r =
    if Result.is_ok r then note_entry_added t ~dino { Dirent.ino; kind_code; name };
    r
  in
  let start = match ix with Some ix -> min ix.free_hint n | None -> 0 in
  match try_existing start with
  | Some dinode -> noted (Ok dinode)
  | None ->
      noted
        (Result.bind (alloc_block t) (fun blk ->
             let b = Dirent.empty_block () in
             if not (Dirent.insert b ~name ~ino ~kind_code) then
               violation "empty dir block refused insert";
             Overlay.write t.ov blk b;
             Result.map
               (fun dinode ->
                 placed n;
                 { dinode with Inode.size = dinode.Inode.size + Layout.block_size })
               (set_block t dinode n blk)))

(* Remove an entry.  On the fast path [loc] names the one block holding
   the slot; the full scan remains as the naive path and as a fallback. *)
let dir_remove t ~dino dinode ~name =
  let n = dir_nblocks dinode in
  let remove_at idx =
    if idx < 0 || idx >= n then false
    else begin
      let phys = dir_phys t dinode idx in
      let removed = ref false in
      Overlay.rmw t.ov phys (fun b ->
          removed := Dirent.remove b name;
          !removed);
      !removed
    end
  in
  let removed_at =
    let located =
      if t.cfg.fast_paths then
        match Hashtbl.find_opt (dir_index t ~dino dinode).loc name with
        | Some idx when remove_at idx -> Some idx
        | _ -> None
      else None
    in
    match located with
    | Some _ as r -> r
    | None ->
        let rec go idx =
          if idx >= n then None else if remove_at idx then Some idx else go (idx + 1)
        in
        go 0
  in
  match removed_at with
  | None -> false
  | Some idx ->
      (if t.cfg.fast_paths then begin
         let ix = dir_index t ~dino dinode in
         Hashtbl.remove ix.loc name;
         if idx < ix.free_hint then ix.free_hint <- idx
       end);
      note_entry_removed t ~dino name;
      true

let dir_set_dotdot t ~dino dinode ~parent =
  let phys = dir_phys t dinode 0 in
  let set = ref false in
  Overlay.rmw t.ov phys (fun b ->
      set := Dirent.set_entry_ino b ".." parent;
      !set);
  if not !set then violation "directory has no \"..\" entry";
  note_entry_added t ~dino { Dirent.ino = parent; kind_code = dir_kind_code; name = ".." }

(* ---- path resolution (from the root, with a generation-guarded cache) ---- *)

let rec walk t ino components ~follow_last ~budget =
  match components with
  | [] -> Ok ino
  | name :: rest -> (
      let inode = read_inode t ino in
      match inode.Inode.kind with
      | Types.Regular | Types.Symlink -> Error Errno.ENOTDIR
      | Types.Directory -> (
          match dir_find t ~dino:ino inode name with
          | None -> Error Errno.ENOENT
          | Some entry -> (
              let child = entry.Dirent.ino in
              check t (inode_allocated t child) "entry %S points to unallocated inode %d" name child;
              let cinode = read_inode t child in
              (if t.cfg.checks then
                 match Types.kind_of_code entry.Dirent.kind_code with
                 | Some k ->
                     check t (k = cinode.Inode.kind) "entry %S kind disagrees with inode %d" name child
                 | None -> violation "entry %S has invalid kind code" name);
              match cinode.Inode.kind with
              | Types.Symlink when rest <> [] || follow_last ->
                  if budget <= 0 then Error Errno.ELOOP
                  else
                    let target = read_range t cinode ~off:0 ~len:cinode.Inode.size in
                    (match Path.parse target with
                    | Error _ -> Error Errno.ENOENT
                    | Ok target_components ->
                        walk t Types.root_ino (target_components @ rest) ~follow_last
                          ~budget:(budget - 1))
              | Types.Regular | Types.Directory | Types.Symlink -> walk t child rest ~follow_last ~budget)))

(* Only successful resolutions are cached (a negative entry would also
   have to be invalidated on creation), and only believed while the
   namespace generation matches.  Symlink targets are immutable once
   created, so a cached resolution through a symlink can only go stale
   via namespace changes — which bump the generation. *)
let resolve t path ~follow_last =
  if not t.cfg.fast_paths then walk t Types.root_ino path ~follow_last ~budget:Types.max_symlink_depth
  else
    match Hashtbl.find_opt t.rcache (path, follow_last) with
    | Some (ino, g) when g = t.gen -> Ok ino
    | Some _ | None -> (
        let r = walk t Types.root_ino path ~follow_last ~budget:Types.max_symlink_depth in
        match r with
        | Ok ino ->
            if Hashtbl.length t.rcache > 512 then Hashtbl.reset t.rcache;
            Hashtbl.replace t.rcache (path, follow_last) (ino, t.gen);
            r
        | Error _ -> r)

let resolve_parent t path =
  match Path.split_last path with
  | None -> Error Errno.EEXIST
  | Some (parent, name) -> (
      match resolve t parent ~follow_last:true with
      | Error e -> Error e
      | Ok pino ->
          let pinode = read_inode t pino in
          if pinode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
          else Ok (pino, pinode, name))

(* ---- fd table ---- *)

(* Lowest-free, scanning from the hint (below which every fd is in use).
   [close] lowers the hint; [install_fd] only adds, which cannot break
   the invariant. *)
let alloc_fd t =
  let rec go i = if Hashtbl.mem t.fds i then go (i + 1) else i in
  let fd = go (if t.cfg.fast_paths then max 0 t.fd_hint else 0) in
  t.fd_hint <- fd;
  fd

(* Early exit on the first hit — the old [Hashtbl.fold] kept scanning the
   whole table after finding one. *)
let fd_refs t ino =
  let exception Found in
  try
    Hashtbl.iter (fun _ f -> if f.fino = ino then raise Found) t.fds;
    false
  with Found -> true

(* Reclaim a zero-linked file once nothing references it. *)
let maybe_reclaim t ino =
  let inode = read_inode t ino in
  if inode.Inode.nlink = 0 && not (fd_refs t ino) then begin
    let inode = shrink_blocks t inode ~keep:0 in
    ignore inode;
    Hashtbl.remove t.orphans ino;
    free_ino t ino
  end

(* ---- mutation epilogue ---- *)

let tick t =
  t.time <- Int64.add t.time 1L;
  t.time

(* Mutation epilogue.  Outside a fold window: write back any dirty
   bitmaps, flush the superblock and re-check the summary invariant.
   Inside a window ([batch]): just note that an epilogue is owed — the
   window runs it once at the end, amortizing the write-back and the
   summary check across the batched ops. *)
let finish_mutation t =
  if t.batch then t.sb_dirty <- true
  else begin
    flush_dirty_bitmaps t;
    flush_sb t;
    check_summaries t
  end

let touch t ino ~time =
  let inode = read_inode t ino in
  write_inode t ino { inode with Inode.mtime = time; ctime = time }

(* ---- guard: map device errors to EIO at the API boundary ---- *)

let guard f = try f () with Device.Io_error _ -> Error Errno.EIO

(* ---- the operations ---- *)

let mode_ok mode = mode land lnot 0o777 = 0

let create_node t path ~mode ~kind ~content =
  match resolve_parent t path with
  | Error e -> Error e
  | Ok (pino, pinode, name) -> (
      match dir_find t ~dino:pino pinode name with
      | Some _ -> Error Errno.EEXIST
      | None -> (
          match alloc_ino t with
          | Error e -> Error e
          | Ok ino ->
              let time = tick t in
              let result =
                let base = Inode.empty kind ~mode ~time in
                match kind with
                | Types.Directory ->
                    (* ".", "..", parent nlink bump. *)
                    Result.bind (alloc_block t) (fun blk ->
                        let b = Dirent.empty_block () in
                        ignore (Dirent.insert b ~name:"." ~ino ~kind_code:dir_kind_code);
                        ignore (Dirent.insert b ~name:".." ~ino:pino ~kind_code:dir_kind_code);
                        Overlay.write t.ov blk b;
                        let inode = { base with Inode.nlink = 2; size = Layout.block_size } in
                        Result.map (fun inode -> inode) (set_block t inode 0 blk))
                | Types.Regular -> Ok base
                | Types.Symlink ->
                    Result.map
                      (fun inode -> inode)
                      (write_range t { base with Inode.mode = 0o777 } ~off:0 content)
              in
              (match result with
              | Error e ->
                  (* Roll back the inode allocation; nothing else happened. *)
                  free_ino t ino;
                  t.time <- Int64.sub t.time 1L;
                  Error e
              | Ok inode -> (
                  write_inode t ino inode;
                  match dir_insert t ~dino:pino pinode ~name ~ino ~kind_code:(Types.kind_code kind) with
                  | Error e ->
                      let inode = shrink_blocks t inode ~keep:0 in
                      ignore inode;
                      free_ino t ino;
                      t.time <- Int64.sub t.time 1L;
                      Error e
                  | Ok pinode ->
                      let pinode =
                        if kind = Types.Directory then
                          { pinode with Inode.nlink = pinode.Inode.nlink + 1 }
                        else pinode
                      in
                      write_inode t pino { pinode with Inode.mtime = time; ctime = time };
                      finish_mutation t;
                      Ok ino))))

let create t path ~mode =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if not (mode_ok mode) then Error Errno.EINVAL
      else create_node t path ~mode ~kind:Types.Regular ~content:"")

let mkdir t path ~mode =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if not (mode_ok mode) then Error Errno.EINVAL
      else create_node t path ~mode ~kind:Types.Directory ~content:"")

let symlink t ~target path =
  guard (fun () ->
      if path = [] then Error Errno.EEXIST
      else if String.length target = 0 then Error Errno.ENOENT
      else if String.length target > 4095 then Error Errno.ENAMETOOLONG
      else create_node t path ~mode:0o777 ~kind:Types.Symlink ~content:target)

let unlink t path =
  guard (fun () ->
      if path = [] then Error Errno.EISDIR
      else
        match resolve_parent t path with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_find t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some entry ->
                let ino = entry.Dirent.ino in
                let inode = read_inode t ino in
                if inode.Inode.kind = Types.Directory then Error Errno.EISDIR
                else begin
                  let time = tick t in
                  ignore (dir_remove t ~dino:pino pinode ~name);
                  write_inode t ino { inode with Inode.nlink = inode.Inode.nlink - 1; ctime = time };
                  touch t pino ~time;
                  if inode.Inode.nlink - 1 = 0 then
                    if fd_refs t ino then Hashtbl.replace t.orphans ino ()
                    else maybe_reclaim t ino;
                  finish_mutation t;
                  Ok ()
                end))

let rmdir t path =
  guard (fun () ->
      if path = [] then Error Errno.EINVAL
      else
        match resolve_parent t path with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_find t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some entry ->
                let ino = entry.Dirent.ino in
                let inode = read_inode t ino in
                if inode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
                else if not (dir_is_empty t ~dino:ino inode) then Error Errno.ENOTEMPTY
                else begin
                  let time = tick t in
                  ignore (dir_remove t ~dino:pino pinode ~name);
                  let inode = shrink_blocks t inode ~keep:0 in
                  ignore inode;
                  free_ino t ino;
                  let pinode = read_inode t pino in
                  write_inode t pino
                    { pinode with Inode.nlink = pinode.Inode.nlink - 1; mtime = time; ctime = time };
                  finish_mutation t;
                  Ok ()
                end))

let flags_valid (f : Types.open_flags) =
  (f.rd || f.wr)
  && (not (f.trunc && not f.wr))
  && (not (f.excl && not f.creat))
  && not (f.append && not f.wr)

let openf t path flags =
  guard (fun () ->
      if not (flags_valid flags) then Error Errno.EINVAL
      else if Hashtbl.length t.fds >= t.cfg.max_fds then Error Errno.EMFILE
      else
        match resolve t path ~follow_last:true with
        | Ok ino ->
            if flags.Types.excl then Error Errno.EEXIST
            else begin
              let inode = read_inode t ino in
              match inode.Inode.kind with
              | Types.Directory -> Error Errno.EISDIR
              | Types.Symlink -> Error Errno.ELOOP
              | Types.Regular ->
                  if flags.Types.trunc && inode.Inode.size > 0 then begin
                    let time = tick t in
                    let inode = shrink_blocks t inode ~keep:0 in
                    write_inode t ino { inode with Inode.size = 0; mtime = time; ctime = time };
                    finish_mutation t
                  end;
                  let fd = alloc_fd t in
                  Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
                  Ok fd
            end
        | Error Errno.ENOENT when flags.Types.creat -> (
            match resolve_parent t path with
            | Error e -> Error e
            | Ok (pino, pinode, name) -> (
                match dir_find t ~dino:pino pinode name with
                | Some _ -> Error Errno.ENOENT (* dangling symlink at the final hop *)
                | None -> (
                    match create_node t path ~mode:0o644 ~kind:Types.Regular ~content:"" with
                    | Error e -> Error e
                    | Ok ino ->
                        let fd = alloc_fd t in
                        Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
                        Ok fd)))
        | Error e -> Error e)

let close t fd =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; _ } ->
          Hashtbl.remove t.fds fd;
          if fd < t.fd_hint then t.fd_hint <- fd;
          if Hashtbl.mem t.orphans fino then begin
            maybe_reclaim t fino;
            finish_mutation t
          end;
          Ok ())

let pread t fd ~off ~len =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; fflags } ->
          if not fflags.Types.rd then Error Errno.EBADF
          else if off < 0 || len < 0 then Error Errno.EINVAL
          else Ok (read_range t (read_inode t fino) ~off ~len))

let pwrite t fd ~off data =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; fflags } ->
          if not fflags.Types.wr then Error Errno.EBADF
          else if off < 0 then Error Errno.EINVAL
          else
            let len = String.length data in
            if len = 0 then Ok 0
            else begin
              let inode = read_inode t fino in
              let eff_off = if fflags.Types.append then inode.Inode.size else off in
              if eff_off + len > Layout.max_file_size then Error Errno.EFBIG
              else
                let time = tick t in
                match write_range t inode ~off:eff_off data with
                | Error e ->
                    t.time <- Int64.sub t.time 1L;
                    (* Partial allocations from a failed write remain in the
                       overlay bitmaps; roll back by shrinking to the old
                       block count. *)
                    let inode' = shrink_blocks t { inode with Inode.size = inode.Inode.size } ~keep:(Inode.blocks_for_size inode.Inode.size) in
                    write_inode t fino inode';
                    flush_sb t;
                    Error e
                | Ok inode ->
                    write_inode t fino { inode with Inode.mtime = time; ctime = time };
                    finish_mutation t;
                    Ok len
            end)

let lookup t path = guard (fun () -> resolve t path ~follow_last:true)

let stat_of t ino =
  let inode = read_inode t ino in
  let size =
    match inode.Inode.kind with
    | Types.Regular | Types.Symlink -> inode.Inode.size
    | Types.Directory -> 0
  in
  {
    Types.st_ino = ino;
    st_kind = inode.Inode.kind;
    st_size = size;
    st_nlink = inode.Inode.nlink;
    st_mode = inode.Inode.mode;
    st_mtime = inode.Inode.mtime;
    st_ctime = inode.Inode.ctime;
  }

let stat t path =
  guard (fun () -> Result.map (fun ino -> stat_of t ino) (resolve t path ~follow_last:true))

let fstat t fd =
  guard (fun () ->
      match Hashtbl.find_opt t.fds fd with
      | None -> Error Errno.EBADF
      | Some { fino; _ } -> Ok (stat_of t fino))

let readdir t path =
  guard (fun () ->
      match resolve t path ~follow_last:true with
      | Error e -> Error e
      | Ok ino ->
          let inode = read_inode t ino in
          if inode.Inode.kind <> Types.Directory then Error Errno.ENOTDIR
          else Ok (dir_names t ~dino:ino inode))

let rename t src dst =
  guard (fun () ->
      if src = [] || dst = [] then Error Errno.EINVAL
      else if Path.equal src dst then (
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (pino, pinode, name) -> (
            match dir_find t ~dino:pino pinode name with
            | None -> Error Errno.ENOENT
            | Some _ -> Ok ()))
      else
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (spino, spinode, sname) -> (
            match dir_find t ~dino:spino spinode sname with
            | None -> Error Errno.ENOENT
            | Some sentry -> (
                let sino = sentry.Dirent.ino in
                let sinode = read_inode t sino in
                let src_is_dir = sinode.Inode.kind = Types.Directory in
                if src_is_dir && Path.is_prefix src ~of_:dst then Error Errno.EINVAL
                else
                  match resolve_parent t dst with
                  | Error e -> Error e
                  | Ok (dpino, dpinode, dname) -> (
                      let dst_existing = dir_find t ~dino:dpino dpinode dname in
                      match dst_existing with
                      | Some dentry when dentry.Dirent.ino = sino -> Ok ()
                      | _ -> (
                          (* Validate/replace the destination. *)
                          let clear_destination () =
                            match dst_existing with
                            | None -> Ok `Nothing
                            | Some dentry -> (
                                let dino = dentry.Dirent.ino in
                                let dinode = read_inode t dino in
                                match (src_is_dir, dinode.Inode.kind) with
                                | true, (Types.Regular | Types.Symlink) -> Error Errno.ENOTDIR
                                | true, Types.Directory ->
                                    if not (dir_is_empty t ~dino dinode) then Error Errno.ENOTEMPTY
                                    else Ok (`Replace_dir dino)
                                | false, Types.Directory -> Error Errno.EISDIR
                                | false, (Types.Regular | Types.Symlink) -> Ok (`Replace_file dino))
                          in
                          match clear_destination () with
                          | Error e -> Error e
                          | Ok disposition ->
                              let time = tick t in
                              (* Drop the destination if it is replaced. *)
                              (match disposition with
                              | `Nothing -> ()
                              | `Replace_dir dino ->
                                  ignore (dir_remove t ~dino:dpino (read_inode t dpino) ~name:dname);
                                  let dinode = shrink_blocks t (read_inode t dino) ~keep:0 in
                                  ignore dinode;
                                  free_ino t dino;
                                  let dp = read_inode t dpino in
                                  write_inode t dpino { dp with Inode.nlink = dp.Inode.nlink - 1 }
                              | `Replace_file dino ->
                                  ignore (dir_remove t ~dino:dpino (read_inode t dpino) ~name:dname);
                                  let dinode = read_inode t dino in
                                  write_inode t dino
                                    { dinode with Inode.nlink = dinode.Inode.nlink - 1 };
                                  if dinode.Inode.nlink - 1 = 0 then
                                    if fd_refs t dino then Hashtbl.replace t.orphans dino ()
                                    else maybe_reclaim t dino);
                              (* Move the entry. *)
                              let spinode = read_inode t spino in
                              ignore (dir_remove t ~dino:spino spinode ~name:sname);
                              let dpinode = read_inode t dpino in
                              (match
                                 dir_insert t ~dino:dpino dpinode ~name:dname ~ino:sino
                                   ~kind_code:(Types.kind_code sinode.Inode.kind)
                               with
                              | Error e -> Error e
                              | Ok dpinode ->
                                  write_inode t dpino dpinode;
                                  (* Cross-parent directory moves: ".." and
                                     parent nlinks. *)
                                  if src_is_dir && spino <> dpino then begin
                                    dir_set_dotdot t ~dino:sino (read_inode t sino) ~parent:dpino;
                                    let sp = read_inode t spino in
                                    write_inode t spino { sp with Inode.nlink = sp.Inode.nlink - 1 };
                                    let dp = read_inode t dpino in
                                    write_inode t dpino { dp with Inode.nlink = dp.Inode.nlink + 1 }
                                  end;
                                  let s = read_inode t sino in
                                  write_inode t sino { s with Inode.ctime = time };
                                  touch t spino ~time;
                                  touch t dpino ~time;
                                  finish_mutation t;
                                  Ok ()))))))

let truncate t path ~size =
  guard (fun () ->
      if size < 0 then Error Errno.EINVAL
      else if size > Layout.max_file_size then Error Errno.EFBIG
      else
        match resolve t path ~follow_last:true with
        | Error e -> Error e
        | Ok ino -> (
            let inode = read_inode t ino in
            match inode.Inode.kind with
            | Types.Directory -> Error Errno.EISDIR
            | Types.Symlink -> Error Errno.EINVAL
            | Types.Regular ->
                let time = tick t in
                let keep = Inode.blocks_for_size size in
                let inode =
                  if size < inode.Inode.size then begin
                    let inode = shrink_blocks t inode ~keep in
                    (* Zero the tail of the final kept block so a later
                       extension reads zeroes. *)
                    (if size mod Layout.block_size <> 0 then
                       let idx = size / Layout.block_size in
                       let phys = get_block t inode idx in
                       if phys <> 0 then begin
                         let b = Overlay.read t.ov phys in
                         Bytes.fill b (size mod Layout.block_size)
                           (Layout.block_size - (size mod Layout.block_size))
                           '\000';
                         Overlay.write t.ov phys b
                       end);
                    inode
                  end
                  else inode
                in
                write_inode t ino { inode with Inode.size = size; mtime = time; ctime = time };
                finish_mutation t;
                Ok ()))

let link t src dst =
  guard (fun () ->
      if src = [] || dst = [] then Error Errno.EINVAL
      else
        match resolve_parent t src with
        | Error e -> Error e
        | Ok (spino, spinode, sname) -> (
            match dir_find t ~dino:spino spinode sname with
            | None -> Error Errno.ENOENT
            | Some sentry -> (
                let sino = sentry.Dirent.ino in
                let sinode = read_inode t sino in
                if sinode.Inode.kind = Types.Directory then Error Errno.EISDIR
                else
                  match resolve_parent t dst with
                  | Error e -> Error e
                  | Ok (dpino, dpinode, dname) -> (
                      match dir_find t ~dino:dpino dpinode dname with
                      | Some _ -> Error Errno.EEXIST
                      | None -> (
                          let time = tick t in
                          match
                            dir_insert t ~dino:dpino dpinode ~name:dname ~ino:sino
                              ~kind_code:(Types.kind_code sinode.Inode.kind)
                          with
                          | Error e ->
                              t.time <- Int64.sub t.time 1L;
                              Error e
                          | Ok dpinode ->
                              write_inode t dpino
                                { dpinode with Inode.mtime = time; ctime = time };
                              write_inode t sino
                                { sinode with Inode.nlink = sinode.Inode.nlink + 1; ctime = time };
                              finish_mutation t;
                              Ok ())))))

let readlink t path =
  guard (fun () ->
      match resolve t path ~follow_last:false with
      | Error e -> Error e
      | Ok ino ->
          let inode = read_inode t ino in
          if inode.Inode.kind <> Types.Symlink then Error Errno.EINVAL
          else Ok (read_range t inode ~off:0 ~len:inode.Inode.size))

let chmod t path ~mode =
  guard (fun () ->
      if not (mode_ok mode) then Error Errno.EINVAL
      else
        match resolve t path ~follow_last:true with
        | Error e -> Error e
        | Ok ino ->
            let time = tick t in
            let inode = read_inode t ino in
            write_inode t ino { inode with Inode.mode = mode; ctime = time };
            finish_mutation t;
            Ok ())

(* The shadow never writes to the device, so sync operations have nothing
   to flush; real durability is the rebooted base's job (paper §3.3). *)
let fsync t fd =
  match Hashtbl.find_opt t.fds fd with None -> Error Errno.EBADF | Some _ -> Ok ()

let sync _t = Ok ()

module Self = struct
  type nonrec t = t

  let create = create
  let mkdir = mkdir
  let unlink = unlink
  let rmdir = rmdir
  let openf = openf
  let close = close
  let pread = pread
  let pwrite = pwrite
  let lookup = lookup
  let stat = stat
  let fstat = fstat
  let readdir = readdir
  let rename = rename
  let truncate = truncate
  let link = link
  let symlink = symlink
  let readlink = readlink
  let chmod = chmod
  let fsync = fsync
  let sync = sync
end

module D = Fs_intf.Dispatch (Self)

let exec = D.exec

type constrained_result =
  | Matches
  | Divergence of Op.outcome
  | Skipped_error
  | Skipped_sync

let exec_constrained t { Op.op; outcome; seq = _ } =
  match outcome with
  | Error _ -> Skipped_error
  | Ok _ ->
      if Op.is_sync op then Skipped_sync
      else
        let shadow_outcome = exec t op in
        if Op.outcome_equal outcome shadow_outcome then Matches else Divergence shadow_outcome

type window_result = { w_ops : int; w_matches : int; w_divergences : int; w_skipped : int }

(* Execute a whole fold window in one batch: per-op mutation epilogues
   (superblock flush, bitmap write-back, summary checks) are deferred and
   run once at the end.  All equivalence comparisons in this repository
   are view-level (op outcomes, readdir/stat/read views, fd tables), so
   the only observable difference from per-op execution is the overlay's
   superblock generation count — which nothing checks for a specific
   value.  On a [Violation] the pending write-back still runs (so the
   overlay is not left behind the in-memory state) and the exception
   propagates; the checkpoint poisons the warm shadow in that case. *)
let exec_constrained_window t entries =
  if t.batch then invalid_arg "Shadow.exec_constrained_window: nested window";
  t.batch <- true;
  let finish () =
    t.batch <- false;
    if t.sb_dirty then begin
      t.sb_dirty <- false;
      flush_dirty_bitmaps t;
      flush_sb t
    end
  in
  let step acc r =
    match exec_constrained t r with
    | Matches -> { acc with w_ops = acc.w_ops + 1; w_matches = acc.w_matches + 1 }
    | Divergence _ -> { acc with w_ops = acc.w_ops + 1; w_divergences = acc.w_divergences + 1 }
    | Skipped_error | Skipped_sync -> { acc with w_ops = acc.w_ops + 1; w_skipped = acc.w_skipped + 1 }
  in
  let zero = { w_ops = 0; w_matches = 0; w_divergences = 0; w_skipped = 0 } in
  match List.fold_left step zero entries with
  | res ->
      finish ();
      check_summaries t;
      res
  | exception e ->
      finish ();
      raise e

(* ---- accessors ---- *)

let dirty_blocks t = Overlay.dirty t.ov

let fd_table t =
  Hashtbl.fold (fun fd { fino; fflags } acc -> (fd, fino, fflags) :: acc) t.fds []
  |> List.sort compare

let fd_count t = Hashtbl.length t.fds
let fd_iter t f = Hashtbl.iter (fun fd { fino; fflags } -> f fd fino fflags) t.fds

let fd_lookup t fd =
  match Hashtbl.find_opt t.fds fd with
  | Some { fino; fflags } -> Some (fino, fflags)
  | None -> None

let install_fd t ~fd ~ino flags =
  if Hashtbl.mem t.fds fd then Error (Printf.sprintf "fd %d already installed" fd)
  else if not (inode_allocated t ino) then
    Error (Printf.sprintf "fd %d references unallocated inode %d" fd ino)
  else
    let inode = read_inode t ino in
    match inode.Inode.kind with
    | Types.Directory -> Error (Printf.sprintf "fd %d references a directory" fd)
    | Types.Symlink -> Error (Printf.sprintf "fd %d references a symlink" fd)
    | Types.Regular ->
        Hashtbl.replace t.fds fd { fino = ino; fflags = flags };
        if inode.Inode.nlink = 0 then Hashtbl.replace t.orphans ino ();
        Ok ()

let time t = t.time
let set_time t v = t.time <- v
let checks_performed t = t.nchecks
let device_reads t = Overlay.reads_from_device t.ov

(* ---- state export / replay-from-state ---- *)

type state = {
  st_overlay : (int * bytes) list;
  st_fds : (Types.fd * Types.ino * Types.open_flags) list;
  st_time : int64;
}

let export_state t = { st_overlay = Overlay.dirty t.ov; st_fds = fd_table t; st_time = t.time }

let attach_from ?(config = default_config) state dev =
  let ov = Overlay.create dev in
  match Overlay.import ov state.st_overlay with
  | exception Invalid_argument msg -> Error ("state import: " ^ msg)
  | () -> (
      let read blk = Overlay.read ov blk in
      match Reader.attach read with
      | Error e -> Error (Reader.error_to_string e)
      | Ok reader -> (
          match (Reader.load_inode_bitmap reader, Reader.load_block_bitmap reader) with
          | Ok ibm, Ok bbm ->
              let t = mk_t ov reader config ~ibm ~bbm ~time:state.st_time in
              let rec install = function
                | [] -> Ok t
                | (fd, ino, flags) :: rest -> (
                    match install_fd t ~fd ~ino flags with
                    | Ok () -> install rest
                    | Error msg -> Error ("state import: " ^ msg))
              in
              install state.st_fds
          | Error e, _ | _, Error e -> Error (Reader.error_to_string e)))
