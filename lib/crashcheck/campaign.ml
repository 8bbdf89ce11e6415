open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Fs = Winefs.Fs
module Layout = Winefs.Layout
module Codec = Winefs.Codec

let cfg = Types.config ~cpus:2 ~inodes_per_cpu:256 ()

(* Never written: every campaign device is a copy-on-write snapshot of
   it, so a fresh device costs O(pages), not a 48 MiB zero fill. *)
let blank = lazy (Device.create ~cost:Device.Cost.free ~size:(48 * Units.mib) ())
let device () = Device.snapshot (Lazy.force blank)

let fresh () =
  let dev = device () in
  (dev, Fs.format dev cfg)

let handle fs = Fs_intf.Handle ((module Fs : Fs_intf.S with type t = Fs.t), fs)

let layout dev =
  Layout.compute ~size:(Device.size dev) ~cpus:cfg.cpus ~inodes_per_cpu:cfg.inodes_per_cpu

(* FNV-1a over the content: the signature only needs a deterministic
   digest — the runtime's polymorphic hash is an implementation detail,
   and Crc32c is owned by the metadata layers. *)
let content_digest s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x7FFFFFFF) s;
  !h

let signature ?(with_content = true) (Fs_intf.Handle ((module F), fs)) cpu =
  let buf = Buffer.create 256 in
  let rec walk path =
    let entries = List.sort compare (F.readdir fs cpu path) in
    List.iter
      (fun name ->
        let child = Repro_vfs.Path.concat path name in
        let st = F.stat fs cpu child in
        (match st.Types.st_kind with
        | Types.Directory ->
            Buffer.add_string buf (Printf.sprintf "%s dir\n" child);
            walk child
        | Types.Regular ->
            let digest =
              if with_content then begin
                let fd = F.openf fs cpu child Types.o_rdonly in
                let content = F.pread fs cpu fd ~off:0 ~len:st.st_size in
                F.close fs cpu fd;
                content_digest content
              end
              else 0
            in
            Buffer.add_string buf
              (Printf.sprintf "%s file size=%d digest=%d\n" child st.st_size digest)))
      entries
  in
  walk "/";
  Buffer.contents buf

let expected ~with_content (w : Ace.workload) cpu =
  let _, fs = fresh () in
  let h = handle fs in
  List.iter (Ace.apply h cpu) w.setup;
  let first = signature ~with_content h cpu in
  let rest =
    List.map
      (fun op ->
        Ace.apply h cpu op;
        signature ~with_content h cpu)
      w.test
  in
  Array.of_list (first :: rest)

let nonblank_inode_headers dev =
  let layout = layout dev in
  let res = ref [] in
  for c = 0 to layout.cpus - 1 do
    for idx = 0 to layout.inodes_per_cpu - 1 do
      let ino = Layout.ino_of layout ~cpu:c ~idx in
      let off = Layout.inode_off layout ino in
      let b = Bytes.create Codec.Inode.header_bytes in
      Device.peek dev ~off ~len:Codec.Inode.header_bytes ~dst:b ~dst_off:0;
      if not (Codec.Inode.header_is_blank b) then res := (ino, off) :: !res
    done
  done;
  Array.of_list (List.rev !res)

(* Private, so no handler in the code under test can mistake it for its
   own control flow. *)
exception Crash

let crash_at dev ~fence run at_crash =
  Device.set_tracking dev true;
  Device.reset_fence_seq dev;
  let result = ref None in
  Device.set_fence_hook dev
    (Some
       (fun seq ->
         if seq = fence then begin
           Device.set_fence_hook dev None;
           result := Some (at_crash ());
           raise Crash
         end));
  (try run () with Crash -> ());
  Device.set_fence_hook dev None;
  !result

let explore ~fences (w : Ace.workload) cpu at_crash =
  let rec go fence =
    if fence <= fences then begin
      let dev, fs = fresh () in
      let h = handle fs in
      List.iter (Ace.apply h cpu) w.setup;
      let op = ref 0 in
      let run () =
        List.iter
          (fun o ->
            Ace.apply h cpu o;
            incr op)
          w.test
      in
      match crash_at dev ~fence run (fun () -> at_crash ~fence ~op:!op dev) with
      | None -> ()
      | Some () -> go (fence + 1)
    end
  in
  go 1
