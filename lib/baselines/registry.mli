(** Uniform instantiation of every file system in the study.

    A {!factory} packs a display name with a constructor returning an
    existential {!Repro_vfs.Fs_intf.handle}; experiments pick from
    {!all} / {!metadata_group} / {!data_group}, matching the two
    comparison groups of §5.1.  Each factory pins the consistency
    contract its system ships with (ext4/xfs/PMFS/SplitFS metadata-only,
    NOVA and Strata full data+metadata). *)

module Of_preset (P : sig
  val preset : Basefs.preset
end) : Repro_vfs.Fs_intf.S with type t = Basefs.t
(** The file system a {!Basefs} preset describes: the engine under the
    preset's name and [format]. *)

type factory = {
  fs_name : string;
  make : Repro_pmem.Device.t -> Repro_vfs.Types.config -> Repro_vfs.Fs_intf.handle;
}

val winefs : factory
val winefs_relaxed : factory
val ext4_dax : factory
val xfs_dax : factory
val pmfs : factory
val nova : factory
val nova_relaxed : factory
val splitfs : factory
val strata : factory

val metadata_group : factory list
(** §5.1 metadata-consistency comparison group. *)

val data_group : factory list
(** §5.1 data+metadata-consistency comparison group. *)

val all : factory list

val by_name : string -> factory
(** Case-insensitive lookup in {!all}; raises [Invalid_argument] for an
    unknown name. *)
