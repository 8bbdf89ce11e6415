(* Model-based testing: random operation sequences applied both to a file
   system and to a trivial in-memory reference; every size, listing and
   existence query must agree.  This is the broadest correctness net over
   the whole FS stack, and it runs over every [Registry.all] factory.

   Only the WineFS factories remount (the baselines model no on-PM image
   and raise EINVAL on [mount]), and only they are held to content
   agreement: the baselines carry three known content defects, pinned in
   test_baselines.ml — stale bytes in a hole of a freshly allocated block
   (ext4-DAX, xfs-DAX, NOVA-Relaxed), old bytes re-exposed by a write
   past a shrinking ftruncate (all seven), and SplitFS staged writes
   shadowing earlier staged data. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Registry = Repro_baselines.Registry

(* The reference: a map from path to content, plus a directory set. *)
module Model = struct
  module M = Map.Make (String)

  type t = { mutable files : string M.t; mutable dirs : string list }

  let create () = { files = M.empty; dirs = [ "/" ] }

  let parent p = Repro_vfs.Path.dirname p

  let dir_exists t d = List.mem d t.dirs

  let write t path ~off ~data =
    match M.find_opt path t.files with
    | None -> ()
    | Some old ->
        let len = max (String.length old) (off + String.length data) in
        let b = Bytes.make len '\000' in
        Bytes.blit_string old 0 b 0 (String.length old);
        Bytes.blit_string data 0 b off (String.length data);
        t.files <- M.add path (Bytes.to_string b) t.files

  let truncate t path n =
    match M.find_opt path t.files with
    | None -> ()
    | Some old ->
        let b = Bytes.make n '\000' in
        Bytes.blit_string old 0 b 0 (min n (String.length old));
        t.files <- M.add path (Bytes.to_string b) t.files
end

type op =
  | Create of string
  | Write of string * int * string
  | Append of string * string
  | Unlink of string
  | Truncate of string * int
  | Rename of string * string
  | Remount

let gen_ops rng n =
  let file i = Printf.sprintf "/d%d/f%d" (i mod 3) (i mod 7) in
  List.init n (fun _ ->
      let f = file (Rng.int rng 21) in
      match Rng.int rng 16 with
      | 0 | 1 | 2 | 3 -> Create f
      | 4 | 5 | 6 ->
          Write (f, Rng.int rng 5000, String.make (1 + Rng.int rng 3000) (Char.chr (97 + Rng.int rng 26)))
      | 7 | 8 | 9 -> Append (f, String.make (1 + Rng.int rng 2000) (Char.chr (65 + Rng.int rng 26)))
      | 10 | 11 -> Unlink f
      | 12 -> Truncate (f, Rng.int rng 6000)
      | 13 | 14 -> Rename (f, file (Rng.int rng 21))
      | _ -> Remount)

let apply_fs (type a) (module Fs : Fs_intf.S with type t = a) fs_ref dev ~remount cpu op =
  let fs = !fs_ref in
  match op with
  | Create p -> (
      match Fs.create fs cpu p with
      | fd -> Fs.close fs cpu fd
      | exception Types.Error _ -> ())
  | Write (p, off, data) -> (
      try
        let fd = Fs.openf fs cpu p Types.o_rdwr in
        ignore (Fs.pwrite fs cpu fd ~off ~src:data);
        Fs.close fs cpu fd
      with Types.Error _ -> ())
  | Append (p, data) -> (
      try
        let fd = Fs.openf fs cpu p Types.o_rdwr in
        ignore (Fs.append fs cpu fd ~src:data);
        Fs.close fs cpu fd
      with Types.Error _ -> ())
  | Unlink p -> ( try Fs.unlink fs cpu p with Types.Error _ -> ())
  | Truncate (p, n) -> (
      try
        let fd = Fs.openf fs cpu p Types.o_rdwr in
        Fs.ftruncate fs cpu fd n;
        Fs.close fs cpu fd
      with Types.Error _ -> ())
  | Rename (a, b) -> (
      try Fs.rename fs cpu ~old_path:a ~new_path:b with Types.Error _ -> ())
  | Remount ->
      if remount then begin
        Fs.unmount fs cpu;
        fs_ref := Fs.mount dev (Fs.config fs)
      end

let apply_model (m : Model.t) op =
  let module M = Model.M in
  match op with
  | Create p ->
      if Model.dir_exists m (Model.parent p) && not (M.mem p m.files) then
        m.files <- M.add p "" m.files
  | Write (p, off, data) -> Model.write m p ~off ~data
  | Append (p, data) -> (
      match M.find_opt p m.files with
      | Some old -> Model.write m p ~off:(String.length old) ~data
      | None -> ())
  | Unlink p -> m.files <- M.remove p m.files
  | Truncate (p, n) -> Model.truncate m p n
  | Rename (a, b) -> (
      match M.find_opt a m.files with
      | Some content when Model.dir_exists m (Model.parent b) && a <> b ->
          (* Renaming over an existing directory entry replaces files
             only; directories are never sources here. *)
          m.files <- M.add b content (M.remove a m.files)
      | _ -> ())
  | Remount -> ()

let check_agreement (type a) (module Fs : Fs_intf.S with type t = a) fs ~content cpu
    (m : Model.t) =
  let module M = Model.M in
  M.iter
    (fun path expected ->
      if not (Fs.exists fs cpu path) then Alcotest.failf "model has %s, fs does not" path;
      let fd = Fs.openf fs cpu path Types.o_rdonly in
      let size = Fs.file_size fs fd in
      if size <> String.length expected then
        Alcotest.failf "%s: size %d vs model %d" path size (String.length expected);
      let data = Fs.pread fs cpu fd ~off:0 ~len:size in
      Fs.close fs cpu fd;
      if content && data <> expected then Alcotest.failf "%s: content mismatch" path)
    m.files;
  (* And nothing extra: walk the fs tree counting regular files. *)
  let count = ref 0 in
  let rec walk dir =
    List.iter
      (fun name ->
        let child = Repro_vfs.Path.concat dir name in
        match (Fs.stat fs cpu child).st_kind with
        | Types.Directory -> walk child
        | Types.Regular -> incr count)
      (Fs.readdir fs cpu dir)
  in
  walk "/";
  if !count <> M.cardinal m.files then
    Alcotest.failf "fs has %d files, model %d" !count (M.cardinal m.files)

let winefs (f : Registry.factory) = f.fs_name = "WineFS" || f.fs_name = "WineFS-Relaxed"

let run_case (factory : Registry.factory) seed ops_count () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(96 * Units.mib) () in
  let cfg = Types.config ~cpus:2 ~inodes_per_cpu:512 () in
  let (Fs_intf.Handle ((module Fs), fs)) = factory.make dev cfg in
  let fs = ref fs and remount = winefs factory and content = winefs factory in
  let cpu = Cpu.make ~id:0 () in
  for d = 0 to 2 do
    Fs.mkdir !fs cpu (Printf.sprintf "/d%d" d)
  done;
  let m = Model.create () in
  m.dirs <- [ "/"; "/d0"; "/d1"; "/d2" ];
  let rng = Rng.create seed in
  List.iter
    (fun op ->
      apply_fs (module Fs) fs dev ~remount cpu op;
      apply_model m op)
    (gen_ops rng ops_count);
  check_agreement (module Fs) !fs ~content cpu m;
  if remount then begin
    (* Final remount must also agree. *)
    Fs.unmount !fs cpu;
    check_agreement (module Fs) (Fs.mount dev (Fs.config !fs)) ~content cpu m
  end

let suite =
  List.concat_map
    (fun (factory : Registry.factory) ->
      List.map
        (fun seed ->
          let name =
            if factory.fs_name = "WineFS" then Printf.sprintf "random ops vs model (seed %d)" seed
            else Printf.sprintf "%s vs model (seed %d)" factory.fs_name seed
          in
          Alcotest.test_case name `Quick (run_case factory seed 300))
        [ 1; 2; 3; 4; 5; 6 ])
    Registry.all
