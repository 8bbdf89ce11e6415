(** The DRAM namespace and block-map data path shared by the Basefs
    (ext4-DAX, xfs-DAX, PMFS), NOVA and Strata models, and through Basefs
    by SplitFS.

    The §5.1 baselines differ in how they allocate, how they make
    metadata durable (journal, per-inode log, per-process log) and how
    they treat hugepages — not in their namespaces, which the paper does
    not compare.  So one module owns the inode table, the fd table and
    every path operation, and each file system supplies only what
    differs, through the hooks of {!FS}: its metadata-persistence call,
    how it releases a file's space, how it truncates on [O_TRUNC], and
    the extras it reports in [stat].

    Where a hook runs decides simulated results: {!Repro_vfs.Dir_index}
    only advances the calling CPU's clock, while the hooks take locks,
    which are scheduling points.  {!slot} fixes, per file system, whether
    the hook runs before or after the index update. *)

open Repro_util

(** One inode.  ['ext] is the file system's own per-inode state. *)
type 'ext inode = {
  ino : int;
  kind : Repro_vfs.Types.file_kind;
  mutable size : int;
  mutable nlink : int;
  bmap : Repro_vfs.Block_map.t;
  dir : Repro_vfs.Dir_index.t option;  (** [Some] exactly for directories *)
  lock : Repro_sched.Sched.mutex;
  ext : 'ext;
}

(** The inode and fd tables. *)
type 'ext t = {
  files : (int, 'ext inode) Hashtbl.t;
  fds : Repro_vfs.Fd_table.t;
  dir_policy : Repro_vfs.Dir_index.policy;
  mutable next_ino : int;
}

val create : Repro_vfs.Dir_index.policy -> root:'ext -> 'ext t
(** A namespace holding only the root directory, whose state is [root]. *)

val free_data : Repro_alloc.Pool_alloc.t -> 'ext inode -> unit
(** Return every mapped extent of the file to the allocator and clear
    its block map. *)

(** {2 Block-map data path}

    How a block map is walked is the same in every baseline; what
    differs (allocation, zeroing, atomicity, persistence) arrives as the
    fill callback or stays at the caller.  None of these takes a lock. *)

val read_mapped :
  Repro_pmem.Device.t -> Cpu.t -> 'ext inode -> off:int -> len:int -> Bytes.t -> unit
(** Read the mapped parts of [\[off, off+len)] into the buffer at
    [file_off - off], leaving the bytes of holes as they are. *)

val write_mapped :
  Repro_pmem.Device.t -> Cpu.t -> site:Repro_pmem.Site.t -> 'ext inode -> off:int ->
  src:string -> src_off:int -> len:int -> unit
(** Non-temporal in-place write of [src\[src_off, src_off+len)] over the
    already mapped [\[off, off+len)], under [Device.with_site site] and
    with no fence. *)

val fill_holes : 'ext inode -> off:int -> len:int -> (int -> int -> unit) -> unit
(** [fill_holes f ~off ~len fill] calls [fill hole_off hole_len] once per
    hole of the block-aligned cover of [\[off, off+len)], in ascending
    order; [fill] maps the hole. *)

val truncate_data : Repro_alloc.Pool_alloc.t -> 'ext inode -> int -> (int * int) list
(** [truncate_data alloc f size] frees the blocks wholly past [size] when
    it shrinks the file, sets the size, and returns the freed
    [(phys, len)] runs. *)

(** The namespace update a persistence hook makes durable. *)
type 'ext update =
  | Link of { dir : 'ext inode; child : 'ext inode }  (** mkdir, create *)
  | Unlink of { dir : 'ext inode; child : 'ext inode }
  | Rmdir of { dir : 'ext inode; child : 'ext inode }
  | Rename of { src_dir : 'ext inode; dst_dir : 'ext inode }

(** Where {!FS.persist} runs relative to the {!Repro_vfs.Dir_index}
    update, under the same directory lock(s). *)
type slot =
  | Before_index  (** log first (NOVA, Strata) *)
  | After_index  (** journal after the index change (Basefs) *)

module type FS = sig
  type fs
  type ext

  val ns : fs -> ext t
  val counters : fs -> Counters.t
  val alloc : fs -> Repro_alloc.Pool_alloc.t
  val capacity : fs -> int  (** data-area bytes, for [statfs] *)

  val new_ext : fs -> int -> ext
  (** State of a newly created inode with the given number. *)

  val slot : slot
  val persist : fs -> Cpu.t -> ext update -> unit

  val release : fs -> ext inode -> unit
  (** Free a file that leaves the namespace.  Unlink and rename call it
      under the file's lock; rmdir without. *)

  val truncate : fs -> Cpu.t -> ext inode -> unit
  (** [O_TRUNC] of a non-empty regular file, locking included. *)

  val size : fs -> ext inode -> int
  (** Size reported by [stat] and [file_size]. *)

  val extra_blocks : ext inode -> int
  (** Bytes [stat] adds to the mapped data in [st_blocks]. *)
end

module Make (F : FS) : sig
  val find_file : F.fs -> int -> F.ext inode
  (** Raises [Types.Error (EBADF, _)] for a stale inode number. *)

  val fd_file : F.fs -> Repro_vfs.Fs_intf.fd -> F.ext inode
  (** The inode an fd refers to. *)

  val check_write :
    F.fs -> Repro_vfs.Fs_intf.fd -> off:int -> src:string -> src_off:int -> len:int -> F.ext inode
  (** The file a write targets.  Raises, in this order: EBADF (fd not
      writable), EISDIR, EINVAL (source range outside [src]), and — only
      when [len > 0], so an empty write stays a no-op — EINVAL for a
      negative [off]. *)

  val check_read : F.fs -> Repro_vfs.Fs_intf.fd -> off:int -> len:int -> F.ext inode
  (** The file a read targets.  Raises EBADF (fd not readable), then
      EINVAL for a negative [off] or [len]. *)

  val resolve : F.fs -> Cpu.t -> string -> int
  (** Path walk to an inode number; raises ENOENT/ENOTDIR. *)

  val mount : Repro_pmem.Device.t -> Repro_vfs.Types.config -> F.fs
  (** Always EINVAL: the baselines model no on-PM image (see DESIGN.md). *)

  val recovery_ns : F.fs -> int
  val mkdir : F.fs -> Cpu.t -> string -> unit
  val rmdir : F.fs -> Cpu.t -> string -> unit
  val create : F.fs -> Cpu.t -> string -> Repro_vfs.Fs_intf.fd
  val openf : F.fs -> Cpu.t -> string -> Repro_vfs.Types.open_flags -> Repro_vfs.Fs_intf.fd
  val close : F.fs -> Cpu.t -> Repro_vfs.Fs_intf.fd -> unit
  val unlink : F.fs -> Cpu.t -> string -> unit
  val rename : F.fs -> Cpu.t -> old_path:string -> new_path:string -> unit
  val readdir : F.fs -> Cpu.t -> string -> string list
  val stat : F.fs -> Cpu.t -> string -> Repro_vfs.Types.stat
  val exists : F.fs -> Cpu.t -> string -> bool
  val file_size : F.fs -> Repro_vfs.Fs_intf.fd -> int
  val set_xattr_align : F.fs -> Cpu.t -> string -> bool -> unit
  val statfs : F.fs -> Repro_vfs.Types.fs_stats
  val file_extents : F.fs -> Cpu.t -> string -> (int * int * int) list
end
