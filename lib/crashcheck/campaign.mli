(** Plumbing shared by the crash campaigns ({!Checker}, {!Faultcheck},
    {!Torturecheck}, {!Fsck_scenarios}) and the durability lint
    ({!Sanitize}): the image factory, the tree-signature oracle and the
    crash-at-fence primitive. *)

module Device = Repro_pmem.Device

val cfg : Repro_vfs.Types.config
(** Every campaign image's configuration: 2 CPUs x 256 inodes each. *)

val device : unit -> Device.t
(** A zero-filled, cost-free 48 MiB device: a {!Device.snapshot} of one
    blank device that is never written, so it costs O(pages). *)

val fresh : unit -> Device.t * Winefs.Fs.t
(** A {!device} formatted with {!cfg}. *)

val handle : Winefs.Fs.t -> Repro_vfs.Fs_intf.handle

val layout : Device.t -> Winefs.Layout.t
(** The on-PM layout {!cfg} gives a device of this size. *)

val signature : ?with_content:bool -> Repro_vfs.Fs_intf.handle -> Repro_util.Cpu.t -> string
(** Canonical description of the whole tree: sorted lines of path, kind,
    size and (unless [with_content = false]) a content digest. *)

val expected : with_content:bool -> Ace.workload -> Repro_util.Cpu.t -> string array
(** Reference signatures of a crash-free run on a {!fresh} image: element
    0 after the setup phase, element [i] after the [i]-th test op. *)

val nonblank_inode_headers : Device.t -> (int * int) array
(** [(ino, offset)] of every non-blank inode-table header of a quiesced
    {!cfg} image: the slots a mount scrub checksum-verifies. *)

val crash_at : Device.t -> fence:int -> (unit -> unit) -> (unit -> 'a) -> 'a option
(** [crash_at dev ~fence run at_crash] turns on pending-store tracking,
    restarts the fence count and calls [run].  At fence number [fence],
    before it commits, the fence hook calls [at_crash] and then abandons
    [run] by raising through it.  [None] when [run] returns first.

    [at_crash] is the crash moment: it must take every crash image it
    needs itself.  Once the exception unwinds, a journaled transaction's
    abort path rolls the in-place stores back and fences again, so the
    device no longer holds the state the fence saw. *)

val explore :
  fences:int ->
  Ace.workload ->
  Repro_util.Cpu.t ->
  (fence:int -> op:int -> Device.t -> unit) ->
  unit
(** Crash the workload's test phase at fence 1, 2, ..., [fences]
    on a {!fresh} image with the setup applied, until the test phase
    finishes before the fence.  For each crash the callback runs as
    {!crash_at}'s [at_crash], with the fence, the index of the in-flight
    test op and the device. *)
