(** Media-fault injection campaign for WineFS (robustness counterpart of
    the crash-consistency {!Checker}).

    Each scenario plants one fault — a bit flip or poisoned line in the
    superblock, an inode header or file data of a cleanly-unmounted image,
    or an 8-byte torn word on an in-flight line at a crash fence — then
    remounts and demands the fault be {e repaired} (tree identical to the
    pre-fault state, writable mount) or {e safely refused} (EIO mount
    failure, read-only degraded mount rejecting mutations with EROFS, or
    an EIO read).  A fault that is neither — a writable mount with no
    detection, fabricated read data, or a tree matching neither side of
    the in-flight operation — is a finding.  The whole campaign is drawn
    from one seed and replays exactly. *)

type finding = {
  f_workload : string;
  f_scenario : string;  (** e.g. ["sb-flip"], ["inode-poison"], ["torn-word"] *)
  f_fault : string;  (** printable fault description *)
  f_diagnosis : string;
}

type report = {
  seed : int;  (** replay with [run ~seed] *)
  scenarios_run : int;
  faults_planted : int;
  repaired : int;
  refused : int;
  findings : finding list;
}

val run :
  ?seed:int ->
  ?workloads:Ace.workload list ->
  ?torn_fences:int ->
  unit ->
  report
(** Run the campaign against WineFS.  Defaults: seed 42, {!Ace.seq1},
    torn-word crashes at the first 4 fences of each workload.  [faults_planted = repaired + refused] iff [findings] is
    empty. *)
