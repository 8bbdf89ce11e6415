(** CrashMonkey-style crash-consistency checker for WineFS (§5.2).

    For every workload, the checker re-executes the test sequence with a
    crash injected at each successive store fence.  At the crash point it
    enumerates the legal persisted subsets of in-flight stores (exhaustive
    when few lines are pending, corner cases + random sampling otherwise),
    materialises each crash image, remounts it — running WineFS's per-CPU
    journal recovery — and verifies that the recovered tree equals the
    state either {e before} or {e after} the in-flight operation (atomic,
    synchronous operations; §3.3 strict mode). *)

type result = {
  workloads_run : int;
  crash_points : int;
  states_checked : int;
  failures : (string * string) list;  (** (workload, diagnosis) *)
}

val run :
  ?mode:Repro_vfs.Types.mode ->
  ?workloads:Ace.workload list ->
  unit ->
  result
(** Run the campaign against WineFS.  Strict mode checks full data +
    metadata atomicity; [Relaxed] restricts the oracle to metadata
    (file sizes and the namespace, not file contents). *)

val signature_of : Repro_vfs.Fs_intf.handle -> Repro_util.Cpu.t -> string
(** Canonical description of the whole tree (paths, kinds, sizes, content
    digests) — the oracle's comparison key. *)

val recovery_time : files:int -> file_bytes:int -> int * int
(** §5.2 "Time to recover": build a file system with [files] files of
    [file_bytes] each, crash it (no clean unmount), remount, and return
    [(recovery_ns, files_scanned)]. *)
