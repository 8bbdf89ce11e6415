(* The baselines' shared DRAM namespace and block-map data path; see the
   interface for the hook contract.  Namespace mutations run under the parent directory's lock
   (both parents for rename, taken in inode-number order), and the
   file system's persistence hook runs inside that critical section. *)

open Repro_util
module Types = Repro_vfs.Types
module Path = Repro_vfs.Path
module Dir_index = Repro_vfs.Dir_index
module Fd_table = Repro_vfs.Fd_table
module Block_map = Repro_vfs.Block_map
module Cost = Repro_vfs.Fs_intf.Cost
module Alloc = Repro_alloc.Pool_alloc
module Sched = Repro_sched.Sched
module Device = Repro_pmem.Device

let root_ino = 1

type 'ext inode = {
  ino : int;
  kind : Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  bmap : Block_map.t;
  dir : Dir_index.t option;
  lock : Sched.mutex;
  ext : 'ext;
}

type 'ext t = {
  files : (int, 'ext inode) Hashtbl.t;
  fds : Fd_table.t;
  dir_policy : Dir_index.policy;
  mutable next_ino : int;
}

let add_inode ns kind ext =
  let ino = ns.next_ino in
  ns.next_ino <- ino + 1;
  let is_dir = kind = Types.Directory in
  let f =
    {
      ino;
      kind;
      size = 0;
      nlink = (if is_dir then 2 else 1);
      bmap = Block_map.create ();
      dir = (if is_dir then Some (Dir_index.create ns.dir_policy) else None);
      lock = Sched.create_mutex ();
      ext;
    }
  in
  Hashtbl.replace ns.files ino f;
  f

let create dir_policy ~root =
  let ns = { files = Hashtbl.create 1024; fds = Fd_table.create (); dir_policy; next_ino = root_ino } in
  ignore (add_inode ns Types.Directory root : _ inode);
  ns

let free_data alloc f =
  List.iter (fun (_, phys, len) -> Alloc.free alloc ~off:phys ~len) (Block_map.extents f.bmap);
  Block_map.clear f.bmap

(* ------------------------------------------------------------------ *)
(* Block-map data path                                                 *)

let read_mapped dev cpu f ~off ~len dst =
  let stop = off + len in
  let cur = ref off in
  while !cur < stop do
    match Block_map.lookup f.bmap ~file_off:!cur with
    | Some (phys, run) ->
        let n = min (stop - !cur) run in
        Device.read dev cpu ~off:phys ~len:n ~dst ~dst_off:(!cur - off);
        cur := !cur + n
    | None -> (
        match Block_map.next_mapped f.bmap ~file_off:(!cur + 1) with
        | Some o -> cur := min stop o
        | None -> cur := stop)
  done

let write_mapped dev cpu ~site f ~off ~src ~src_off ~len =
  let src_b = Bytes.unsafe_of_string src in
  let stop = off + len in
  Device.with_site dev site (fun () ->
      let cur = ref off in
      while !cur < stop do
        let phys, run = Option.get (Block_map.lookup f.bmap ~file_off:!cur) in
        let n = min (stop - !cur) run in
        Device.write_nt dev cpu ~off:phys ~src:src_b ~src_off:(src_off + (!cur - off)) ~len:n;
        cur := !cur + n
      done)

let fill_holes f ~off ~len fill =
  let hi = Units.round_up (off + len) Units.base_page in
  let cur = ref (Units.round_down off Units.base_page) in
  while !cur < hi do
    match Block_map.lookup f.bmap ~file_off:!cur with
    | Some (_, run) -> cur := !cur + run
    | None ->
        let hole_end =
          match Block_map.next_mapped f.bmap ~file_off:(!cur + 1) with
          | Some o -> min hi o
          | None -> hi
        in
        fill !cur (hole_end - !cur);
        cur := hole_end
  done

let truncate_data alloc f new_size =
  let lo = Units.round_up new_size Units.base_page in
  let freed =
    if new_size < f.size && f.size > lo then
      Block_map.remove_range f.bmap ~file_off:lo ~len:(f.size - lo)
    else []
  in
  List.iter (fun (o, l) -> Alloc.free alloc ~off:o ~len:l) freed;
  f.size <- new_size;
  freed

type 'ext update =
  | Link of { dir : 'ext inode; child : 'ext inode }
  | Unlink of { dir : 'ext inode; child : 'ext inode }
  | Rmdir of { dir : 'ext inode; child : 'ext inode }
  | Rename of { src_dir : 'ext inode; dst_dir : 'ext inode }

type slot = Before_index | After_index

module type FS = sig
  type fs
  type ext

  val ns : fs -> ext t
  val counters : fs -> Counters.t
  val alloc : fs -> Alloc.t
  val capacity : fs -> int
  val new_ext : fs -> int -> ext
  val slot : slot
  val persist : fs -> Cpu.t -> ext update -> unit
  val release : fs -> ext inode -> unit
  val truncate : fs -> Cpu.t -> ext inode -> unit
  val size : fs -> ext inode -> int
  val extra_blocks : ext inode -> int
end

module Make (F : FS) = struct
  let find_file t ino =
    match Hashtbl.find_opt (F.ns t).files ino with
    | Some f -> f
    | None -> Types.err EBADF "stale inode %d" ino

  let fd_file t fd = find_file t (Fd_table.get (F.ns t).fds fd).ino

  let check_write t fd ~off ~src ~src_off ~len =
    let e = Fd_table.get (F.ns t).fds fd in
    if not e.flags.wr then Types.err EBADF "fd %d not writable" fd;
    let f = find_file t e.ino in
    if f.kind = Types.Directory then Types.err EISDIR "fd %d" fd;
    if src_off < 0 || len < 0 || src_off + len > String.length src then
      Types.err EINVAL "pwrite_sub outside src bounds";
    if len > 0 && off < 0 then Types.err EINVAL "negative offset";
    f

  let check_read t fd ~off ~len =
    let e = Fd_table.get (F.ns t).fds fd in
    if not e.flags.rd then Types.err EBADF "fd %d not readable" fd;
    let f = find_file t e.ino in
    if off < 0 || len < 0 then Types.err EINVAL "bad range";
    f

  let resolve t cpu path =
    let rec walk ino = function
      | [] -> ino
      | name :: rest -> (
          match (find_file t ino).dir with
          | None -> Types.err ENOTDIR "%s" path
          | Some idx -> (
              match Dir_index.lookup idx cpu name with
              | Some (child, _) -> walk child rest
              | None -> Types.err ENOENT "%s" path))
    in
    walk root_ino (Path.split path)

  let resolve_parent t cpu path =
    let dir = Path.dirname path and name = Path.basename path in
    let f = find_file t (resolve t cpu dir) in
    if f.kind <> Types.Directory then Types.err ENOTDIR "%s" dir;
    (f, name)

  (* Apply a Dir_index change and make it durable, in the file system's
     order. *)
  let persisted t cpu update index_change =
    match F.slot with
    | Before_index ->
        F.persist t cpu update;
        index_change ()
    | After_index ->
        index_change ();
        F.persist t cpu update

  let mount _dev _cfg =
    Types.err EINVAL "baseline models do not support mount-from-image (see DESIGN.md)"

  let recovery_ns _ = 0

  let link t cpu path kind =
    Cost.charge_syscall cpu;
    let dir, name = resolve_parent t cpu path in
    Sched.with_lock dir.lock (fun () ->
        let idx = Option.get dir.dir in
        if Dir_index.mem idx cpu name then Types.err EEXIST "%s" path;
        let ns = F.ns t in
        let child = add_inode ns kind (F.new_ext t ns.next_ino) in
        persisted t cpu (Link { dir; child }) (fun () ->
            Dir_index.add idx cpu ~name ~ino:child.ino ~slot:0;
            if kind = Types.Directory then dir.nlink <- dir.nlink + 1);
        child)

  let mkdir t cpu path =
    ignore (link t cpu path Types.Directory : F.ext inode);
    Counters.incr (F.counters t) "fs.mkdir"

  let create t cpu path =
    let f = link t cpu path Types.Regular in
    Counters.incr (F.counters t) "fs.create";
    Fd_table.alloc (F.ns t).fds ~ino:f.ino ~flags:Types.o_creat_rdwr

  let unlink t cpu path =
    Cost.charge_syscall cpu;
    let dir, name = resolve_parent t cpu path in
    Sched.with_lock dir.lock (fun () ->
        let idx = Option.get dir.dir in
        match Dir_index.lookup idx cpu name with
        | None -> Types.err ENOENT "%s" path
        | Some (ino, _) ->
            let child = find_file t ino in
            if child.kind = Types.Directory then Types.err EISDIR "%s" path;
            persisted t cpu (Unlink { dir; child }) (fun () -> Dir_index.remove idx cpu name);
            child.nlink <- child.nlink - 1;
            if child.nlink = 0 then
              (* Hold the inode lock: a concurrent writer must not see its
                 backing vanish mid-operation. *)
              Sched.with_lock child.lock (fun () ->
                  F.release t child;
                  Hashtbl.remove (F.ns t).files ino));
    Counters.incr (F.counters t) "fs.unlink"

  let rmdir t cpu path =
    Cost.charge_syscall cpu;
    let dir, name = resolve_parent t cpu path in
    Sched.with_lock dir.lock (fun () ->
        let idx = Option.get dir.dir in
        match Dir_index.lookup idx cpu name with
        | None -> Types.err ENOENT "%s" path
        | Some (ino, _) ->
            let child = find_file t ino in
            if child.kind <> Types.Directory then Types.err ENOTDIR "%s" path;
            if Dir_index.size (Option.get child.dir) > 0 then Types.err ENOTEMPTY "%s" path;
            persisted t cpu (Rmdir { dir; child }) (fun () ->
                Dir_index.remove idx cpu name;
                dir.nlink <- dir.nlink - 1);
            F.release t child;
            Hashtbl.remove (F.ns t).files ino);
    Counters.incr (F.counters t) "fs.rmdir"

  let rename t cpu ~old_path ~new_path =
    Cost.charge_syscall cpu;
    let src_dir, src_name = resolve_parent t cpu old_path in
    let dst_dir, dst_name = resolve_parent t cpu new_path in
    let locks =
      if src_dir.ino = dst_dir.ino then [ src_dir.lock ]
      else if src_dir.ino < dst_dir.ino then [ src_dir.lock; dst_dir.lock ]
      else [ dst_dir.lock; src_dir.lock ]
    in
    List.iter Sched.lock locks;
    Fun.protect
      ~finally:(fun () -> List.iter Sched.unlock (List.rev locks))
      (fun () ->
        let src_idx = Option.get src_dir.dir and dst_idx = Option.get dst_dir.dir in
        match Dir_index.lookup src_idx cpu src_name with
        | None -> Types.err ENOENT "%s" old_path
        | Some (ino, _) ->
            (match Dir_index.lookup dst_idx cpu dst_name with
            | Some (victim_ino, _) when victim_ino <> ino ->
                let victim = find_file t victim_ino in
                if victim.kind = Types.Directory then Types.err EISDIR "%s" new_path;
                Dir_index.remove dst_idx cpu dst_name;
                Sched.with_lock victim.lock (fun () ->
                    F.release t victim;
                    Hashtbl.remove (F.ns t).files victim_ino)
            | _ -> ());
            persisted t cpu (Rename { src_dir; dst_dir }) (fun () ->
                Dir_index.remove src_idx cpu src_name;
                Dir_index.add dst_idx cpu ~name:dst_name ~ino ~slot:0));
    Counters.incr (F.counters t) "fs.rename"

  let readdir t cpu path =
    Cost.charge_syscall cpu;
    match (find_file t (resolve t cpu path)).dir with
    | None -> Types.err ENOTDIR "%s" path
    | Some idx ->
        Simclock.advance cpu.clock (Dir_index.size idx * 12);
        List.map fst (Dir_index.entries idx)

  let stat t cpu path =
    Cost.charge_syscall cpu;
    let f = find_file t (resolve t cpu path) in
    {
      Types.st_ino = f.ino;
      st_kind = f.kind;
      st_size = F.size t f;
      st_blocks = Block_map.mapped_bytes f.bmap + F.extra_blocks f;
      st_nlink = f.nlink;
    }

  let exists t cpu path =
    match resolve t cpu path with
    | _ -> true
    | exception Types.Error ((ENOENT | ENOTDIR), _) -> false

  let rec openf t cpu path (flags : Types.open_flags) =
    Cost.charge_syscall cpu;
    match resolve t cpu path with
    | ino ->
        if flags.creat && flags.excl then Types.err EEXIST "%s" path;
        let f = find_file t ino in
        if f.kind = Types.Directory && flags.wr then Types.err EISDIR "%s" path;
        if flags.trunc && f.kind = Types.Regular && f.size > 0 then F.truncate t cpu f;
        Fd_table.alloc (F.ns t).fds ~ino ~flags
    | exception Types.Error (ENOENT, _) when flags.creat ->
        let fd = create t cpu path in
        Fd_table.close (F.ns t).fds fd;
        openf t cpu path { flags with creat = false }

  let close t cpu fd =
    Cost.charge_syscall cpu;
    Fd_table.close (F.ns t).fds fd

  let file_size t fd = F.size t (fd_file t fd)
  let set_xattr_align _t cpu _path _v = Cost.charge_syscall cpu

  let statfs t =
    let alloc = F.alloc t and capacity = F.capacity t in
    let free = Alloc.free_bytes alloc in
    {
      Types.capacity;
      used = capacity - free;
      free;
      free_extents = Alloc.free_extent_count alloc;
      largest_free = Alloc.largest_free alloc;
      aligned_free_2m = Alloc.aligned_region_count alloc;
    }

  let file_extents t cpu path = Block_map.extents (find_file t (resolve t cpu path)).bmap
end
