(** The kernel-filesystem engine behind ext4-DAX, xfs-DAX and PMFS (and
    the kernel half of SplitFS).

    One block-based FS parameterised by a {!preset}: allocator policy,
    directory-index policy, journal flavour (JBD2-style redo vs PMFS-style
    fine-grained undo), eager-vs-fault-time zeroing, and the hugepage
    behaviours the paper distinguishes (§2.5, §5.1).  The three systems
    are the preset values {!ext4_dax}, {!xfs_dax} and {!pmfs}; the
    registry turns each into a {!Repro_vfs.Fs_intf.S} by supplying the
    preset's [name] and [format], so the cross-system differences live in
    one record.  The namespace is {!Dram_namespace}'s; this engine adds
    its journal calls after each directory-index update.

    The interface exposes the concrete {!t} and {!ext} records: SplitFS's
    user-space half reaches into them (block maps, fd table, allocator)
    rather than duplicating the engine's state. *)

open Repro_util

(** How metadata updates reach the journal. *)
type journal_kind =
  | Jbd2_redo  (** global redo journal, stop-the-world commit at fsync *)
  | Pmfs_undo  (** fine-grained undo logging, committed per-operation *)

type preset = {
  label : string;
  alloc_cfg : Repro_alloc.Pool_alloc.config;
  dir_policy : Repro_vfs.Dir_index.policy;
  journal : journal_kind;
  zero_on_fallocate : bool;
  misaligned_start : bool;
      (** data area starts off 2MB alignment (legacy layouts, footnote 1) *)
  huge_fault_alloc : bool;  (** attempt a 2MB allocation on a PMD fault *)
  goal_alloc : bool;  (** pass the file's last extent as a locality goal *)
}

val ext4_dax : preset
(** Goal-based (locality-first) allocation with mballoc-style
    power-of-two normalisation, a global JBD2 redo journal committed
    stop-the-world at fsync, unwritten extents zeroed on first fault
    (§5.4), and PMD faults that allocate 2MB without caring about
    alignment — hugepages appear clean but dissolve with age (§2.5). *)

val xfs_dax : preset
(** Best-fit allocation that disregards alignment, from a data area that
    does not start 2MB-aligned (footnote 1: no hugepages even clean),
    with a global redo journal committed stop-the-world at fsync. *)

val pmfs : preset
(** A single fine-grained undo journal, a global first-fit allocator that
    ignores alignment (no hugepages even clean), and sequential PM scans
    of directory entries (§3.5). *)

type journal =
  | Jredo of Repro_journal.Redo_journal.t
  | Jundo of Repro_journal.Undo_journal.t * Repro_sched.Sched.mutex

type ext = {
  mutable unwritten : Repro_rbtree.Extent_tree.t option;
      (** fallocated-but-never-written file ranges; [None] until the
          first fallocate (most files never fallocate) *)
  mutable dirty_bytes : int;
  mutable goal : int;  (** physical end of the last allocation *)
  meta_addr : int;  (** synthetic PM address of this inode's metadata *)
}

type file = ext Dram_namespace.inode

type t = {
  dev : Repro_pmem.Device.t;
  cfg : Repro_vfs.Types.config;
  preset : preset;
  alloc : Repro_alloc.Pool_alloc.t;
  journal : journal;
  ns : ext Dram_namespace.t;
  counters : Counters.t;
  inode_region : int;
  inode_slots : int;
  data_off : int;
  data_len : int;
}

(** {2 Lifecycle} *)

val format : preset -> Repro_pmem.Device.t -> Repro_vfs.Types.config -> t
val mount : Repro_pmem.Device.t -> Repro_vfs.Types.config -> t
val unmount : t -> Cpu.t -> unit
val recovery_ns : t -> int
val device : t -> Repro_pmem.Device.t
val config : t -> Repro_vfs.Types.config
val counters : t -> Counters.t

(** {2 Engine internals used by SplitFS}

    SplitFS's user-space half stages appends against the kernel FS's own
    block maps and allocator, so it needs inode and path resolution. *)

val find_file : t -> int -> file
(** Raises [Types.Error (EBADF, _)] for a stale inode number. *)

val resolve : t -> Cpu.t -> string -> int
(** Path walk to an inode number; raises ENOENT/ENOTDIR. *)

val check_write : t -> int -> off:int -> src:string -> src_off:int -> len:int -> file
val check_read : t -> int -> off:int -> len:int -> file
(** The argument checks of {!pwrite_sub} and {!pread}
    ({!Dram_namespace.Make}'s), which SplitFS's user-space paths make
    without charging a syscall. *)

val meta_sync : t -> Cpu.t -> addr:int -> bytes:int -> unit
(** Journal and persist a metadata update at [addr] immediately (undo
    flavour) or buffer it in the running transaction (redo flavour). *)

(** {2 The Fs_intf.S operations} *)

val mkdir : t -> Cpu.t -> string -> unit
val rmdir : t -> Cpu.t -> string -> unit
val create : t -> Cpu.t -> string -> int
val openf : t -> Cpu.t -> string -> Repro_vfs.Types.open_flags -> int
val close : t -> Cpu.t -> int -> unit
val unlink : t -> Cpu.t -> string -> unit
val rename : t -> Cpu.t -> old_path:string -> new_path:string -> unit
val readdir : t -> Cpu.t -> string -> string list
val stat : t -> Cpu.t -> string -> Repro_vfs.Types.stat
val exists : t -> Cpu.t -> string -> bool
val pwrite : t -> Cpu.t -> int -> off:int -> src:string -> int
val pwrite_sub : t -> Cpu.t -> int -> off:int -> src:string -> src_off:int -> len:int -> int
val pread : t -> Cpu.t -> int -> off:int -> len:int -> string
val append : t -> Cpu.t -> int -> src:string -> int
val fsync : t -> Cpu.t -> int -> unit
val fallocate : t -> Cpu.t -> int -> off:int -> len:int -> unit
val ftruncate : t -> Cpu.t -> int -> int -> unit
val file_size : t -> int -> int
val mmap_backing : t -> int -> Repro_memsim.Vmem.backing
val set_xattr_align : t -> Cpu.t -> string -> bool -> unit
val statfs : t -> Repro_vfs.Types.fs_stats
val file_extents : t -> Cpu.t -> string -> (int * int * int) list
