(** Crash-fsck-remount torture campaign (the offline-repair counterpart
    of {!Faultcheck}).

    Each iteration runs a workload, crashes it at a seeded fence keeping
    a seeded subset of the in-flight cache lines, optionally plants one
    seeded media fault on the wreck (superblock or inode-header bit flip
    / poisoned line), runs {!Repro_fsck.Fsck.run} with repair, and
    demands the image then mount {e writable}, walk cleanly, accept a
    probe mutation, and pass a second finding-free fsck (convergence).
    Any other outcome is a failure.  The whole campaign is drawn from
    one seed and replays exactly. *)

type failure = {
  t_iter : int;  (** 1-based iteration *)
  t_workload : string;
  t_fence : int;  (** crash fence within the test phase *)
  t_diagnosis : string;
}

type report = {
  seed : int;  (** replay with [run ~seed] *)
  iterations : int;
  workloads : int;  (** distinct workloads in rotation *)
  crashes : int;
  faults_planted : int;
  repairs : int;  (** total fsck repairs across the campaign *)
  orphans : int;  (** total orphans reattached *)
  failures : failure list;
}

val run : ?seed:int -> ?iterations:int -> ?fault_rate:float -> unit -> report
(** Run the campaign.  Defaults: seed 42, 60 iterations alternating two
    workloads, a media fault on half the crash images.
    A healthy repairer yields [failures = []]. *)
