(* Baseline-specific behaviours the paper's analysis leans on: NOVA's log
   pages and append CoW amplification, SplitFS's staged appends, Strata's
   digestion, ext4's unwritten-extent zeroing, xfs/PMFS misalignment. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Vmem = Repro_memsim.Vmem
module Nova = Repro_baselines.Nova
module Splitfs = Repro_baselines.Splitfs
module Strata = Repro_baselines.Strata
module Basefs = Repro_baselines.Basefs
module Ext4 = Repro_baselines.Registry.Of_preset (struct let preset = Basefs.ext4_dax end)
module Xfs = Repro_baselines.Registry.Of_preset (struct let preset = Basefs.xfs_dax end)

let mk fmt =
  let dev = Device.create ~cost:Device.Cost.free ~size:(96 * Units.mib) () in
  (fmt dev (Types.config ~cpus:2 ~inodes_per_cpu:512 ()), dev)

let cpu () = Cpu.make ~id:0 ()

let test_nova_log_pages_fragment () =
  let fs, _ = mk Nova.format in
  let c = cpu () in
  (* Creating files appends to inode logs -> log pages allocated from the
     data area (the Figure-3 mechanism). *)
  for i = 1 to 50 do
    let fd = Nova.create fs c (Printf.sprintf "/f%d" i) in
    Nova.close fs c fd
  done;
  Alcotest.(check bool) "log pages allocated" true
    (Counters.get (Nova.counters fs) "fs.log_pages" > 0);
  Alcotest.(check bool) "log appends recorded" true
    (Counters.get (Nova.counters fs) "fs.log_appends" >= 100)

let test_nova_append_cow_amplification () =
  (* §5.5 WiredTiger: unaligned appends copy the partial tail block. *)
  let fs, dev = mk Nova.format in
  let c = cpu () in
  let fd = Nova.create fs c "/wt" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 1000 'a'));
  Device.reset_counters dev;
  ignore (Nova.append fs c fd ~src:(String.make 1000 'b'));
  (* The 1000-byte append rewrites the whole 4K block: old bytes copied. *)
  Alcotest.(check bool) "write amplification" true
    (Counters.get (Device.counters dev) "pm.bytes_written" > 3000);
  Alcotest.(check string) "content intact" ("a" ^ String.make 1 'a')
    (String.sub (Nova.pread fs c fd ~off:0 ~len:2) 0 2);
  Alcotest.(check string) "appended bytes" "bb" (Nova.pread fs c fd ~off:1000 ~len:2);
  Nova.close fs c fd

let test_nova_strict_overwrite_relocates () =
  (* CoW: overwriting moves the file to fresh blocks. *)
  let fs, _ = mk Nova.format in
  let c = cpu () in
  let fd = Nova.create fs c "/cow" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 8192 'x'));
  let before = Nova.file_extents fs c "/cow" in
  ignore (Nova.pwrite fs c fd ~off:0 ~src:(String.make 8192 'y'));
  let after = Nova.file_extents fs c "/cow" in
  Alcotest.(check bool) "physical location changed" true (before <> after);
  Alcotest.(check string) "new data" "yy" (Nova.pread fs c fd ~off:0 ~len:2);
  Nova.close fs c fd

let test_splitfs_staging_relink () =
  let fs, _ = mk Splitfs.format in
  let c = cpu () in
  let fd = Splitfs.create fs c "/log" in
  ignore (Splitfs.append fs c fd ~src:"one ");
  ignore (Splitfs.append fs c fd ~src:"two ");
  (* Visible before fsync (reads check the staging map)... *)
  Alcotest.(check string) "staged reads" "one two " (Splitfs.pread fs c fd ~off:0 ~len:8);
  Alcotest.(check int) "size includes staged" 8 (Splitfs.file_size fs fd);
  (* ...and after the fsync relink. *)
  Splitfs.fsync fs c fd;
  Alcotest.(check string) "relinked" "one two " (Splitfs.pread fs c fd ~off:0 ~len:8);
  let st = Splitfs.stat fs c "/log" in
  Alcotest.(check int) "committed size" 8 st.Types.st_size;
  Splitfs.close fs c fd

let test_splitfs_rename_drops_staging () =
  (* A file replaced by a rename takes its staged appends with it. *)
  let fs, _ = mk Splitfs.format in
  let c = cpu () in
  let free0 = (Splitfs.statfs fs).Types.free in
  let fd = Splitfs.create fs c "/keep" in
  ignore (Splitfs.append fs c fd ~src:"kept");
  Splitfs.fsync fs c fd;
  Splitfs.close fs c fd;
  let fd = Splitfs.create fs c "/victim" in
  ignore (Splitfs.append fs c fd ~src:(String.make 65536 'v'));
  Splitfs.close fs c fd;
  Splitfs.rename fs c ~old_path:"/keep" ~new_path:"/victim";
  Splitfs.unlink fs c "/victim";
  Alcotest.(check int) "all space returned" free0 (Splitfs.statfs fs).Types.free

let test_splitfs_trunc_drops_staging () =
  (* O_TRUNC empties the file, staged appends included. *)
  let fs, _ = mk Splitfs.format in
  let c = cpu () in
  let fd = Splitfs.create fs c "/t" in
  ignore (Splitfs.pwrite fs c fd ~off:0 ~src:(String.make 100 'a'));
  Splitfs.fsync fs c fd;
  ignore (Splitfs.append fs c fd ~src:(String.make 100 'b'));
  Splitfs.close fs c fd;
  let fd = Splitfs.openf fs c "/t" { Types.o_rdwr with trunc = true } in
  Alcotest.(check int) "size after O_TRUNC" 0 (Splitfs.file_size fs fd);
  Alcotest.(check string) "nothing to read" "" (Splitfs.pread fs c fd ~off:0 ~len:200);
  Splitfs.close fs c fd

let test_strata_digestion () =
  let fs, _ = mk Strata.format in
  let c = cpu () in
  let fd = Strata.create fs c "/d" in
  ignore (Strata.pwrite fs c fd ~off:0 ~src:(String.make 5000 's'));
  (* Data readable from the log before digestion. *)
  Alcotest.(check string) "read from log" "ss" (Strata.pread fs c fd ~off:0 ~len:2);
  let st = Strata.stat fs c "/d" in
  Alcotest.(check int) "no shared-area blocks yet" 0 st.Types.st_blocks;
  (* mmap forces digestion into the shared area. *)
  let backing = Strata.mmap_backing fs fd in
  ignore (backing c ~file_off:0 ~huge_ok:false);
  Alcotest.(check bool) "digested" true
    (Counters.get (Strata.counters fs) "fs.digests" >= 1);
  Alcotest.(check string) "read after digest" "ss" (Strata.pread fs c fd ~off:0 ~len:2);
  Strata.close fs c fd

let test_strata_cheap_fsync () =
  let fs, dev = mk Strata.format in
  let c = cpu () in
  let fd = Strata.create fs c "/f" in
  ignore (Strata.pwrite fs c fd ~off:0 ~src:(String.make 65536 'q'));
  Device.reset_counters dev;
  let t0 = Cpu.now c in
  Strata.fsync fs c fd;
  (* fsync is nearly free: the log is already durable. *)
  Alcotest.(check bool) "fsync cheap" true (Cpu.now c - t0 < 2000);
  Strata.close fs c fd

let test_ext4_unwritten_zeroing_on_fault () =
  let fs, dev = mk Ext4.format in
  let c = cpu () in
  let fd = Ext4.create fs c "/fa" in
  Ext4.fallocate fs c fd ~off:0 ~len:(4 * Units.mib);
  Device.reset_counters dev;
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(4 * Units.mib) ~backing:(Ext4.mmap_backing fs fd) () in
  Vmem.read vm c r ~off:0 ~len:8;
  (* First fault into the unwritten extent zeroes it (§5.4: ext4 zeroes at
     fault, not at fallocate). *)
  Alcotest.(check bool) "fault zeroed" true
    (Counters.get (Device.counters dev) "pm.bytes_written" >= Units.base_page);
  Ext4.close fs c fd

let test_xfs_never_aligned () =
  (* Footnote 1: xfs-DAX gets no hugepages even on a clean file system. *)
  let fs, dev = mk Xfs.format in
  let c = cpu () in
  let fd = Xfs.create fs c "/big" in
  Xfs.fallocate fs c fd ~off:0 ~len:(8 * Units.mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(8 * Units.mib) ~backing:(Xfs.mmap_backing fs fd) () in
  Vmem.prefault vm c r;
  Alcotest.(check int) "no hugepages on clean xfs" 0 (Vmem.huge_mapped_bytes vm r);
  Xfs.close fs c fd

let test_ext4_aligned_when_clean () =
  (* ...while clean ext4-DAX does produce hugepage-capable extents. *)
  let fs, dev = mk Ext4.format in
  let c = cpu () in
  let fd = Ext4.create fs c "/big" in
  Ext4.fallocate fs c fd ~off:0 ~len:(8 * Units.mib);
  let vm = Vmem.create dev in
  let r = Vmem.mmap vm ~len:(8 * Units.mib) ~backing:(Ext4.mmap_backing fs fd) () in
  Vmem.prefault vm c r;
  Alcotest.(check bool) "clean ext4 gets hugepages" true
    (Vmem.huge_mapped_bytes vm r >= 6 * Units.mib);
  Ext4.close fs c fd

(* ------------------------------------------------------------------ *)
(* Known content defects.  Each case asserts today's (wrong) behaviour,
   so a fix shows up here as a failure to update, not as silent drift
   of the simulated results that depend on it. *)

module Registry = Repro_baselines.Registry
module Fs_intf = Repro_vfs.Fs_intf

(* A read scenario, polymorphic in the file system it runs on. *)
type scenario = { run : 'a. (module Fs_intf.S with type t = 'a) -> 'a -> Cpu.t -> string }

(* Run [f] on a fresh instance of every registry file system and return
   what it read, by file-system name. *)
let read_on_each f =
  List.map
    (fun (factory : Registry.factory) ->
      let dev = Device.create ~cost:Device.Cost.free ~size:(96 * Units.mib) () in
      let (Fs_intf.Handle ((module F), fs)) =
        factory.make dev (Types.config ~cpus:2 ~inodes_per_cpu:512 ())
      in
      (factory.fs_name, f.run (module F) fs (cpu ())))
    Registry.all

let check_reads what expect got =
  List.iter
    (fun (name, data) ->
      Alcotest.(check string) (name ^ ": " ^ what) (expect name) data)
    got

let test_defect_stale_hole () =
  (* Known defect: a hole inside a freshly allocated block reads the
     block's previous owner's bytes, on the file systems that neither
     zero at allocation nor copy-on-write. *)
  let got =
    read_on_each
      {
        run =
          (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) c ->
        let fd = F.create fs c "/old" in
        ignore (F.pwrite fs c fd ~off:0 ~src:(String.make 65536 'x'));
        F.close fs c fd;
        F.unlink fs c "/old";
        let fd = F.create fs c "/new" in
        ignore (F.pwrite fs c fd ~off:3000 ~src:"y");
        let data = F.pread fs c fd ~off:0 ~len:3000 in
        F.close fs c fd;
        data);
      }
  in
  check_reads "hole before a 1-byte write"
    (function
      | "ext4-DAX" | "xfs-DAX" | "NOVA-Relaxed" -> String.make 3000 'x'
      | _ -> String.make 3000 '\000')
    got

let test_defect_truncate_reexposes () =
  (* Known defect: shrinking ftruncate leaves the tail of the last block
     mapped and unzeroed, so a later write past it re-exposes the old
     bytes in between. *)
  let got =
    read_on_each
      {
        run =
          (fun (type a) (module F : Fs_intf.S with type t = a) (fs : a) c ->
        let fd = F.create fs c "/f" in
        ignore (F.pwrite fs c fd ~off:0 ~src:(String.make 4000 'o'));
        F.ftruncate fs c fd 1000;
        ignore (F.pwrite fs c fd ~off:3000 ~src:"n");
        let data = F.pread fs c fd ~off:1000 ~len:2000 in
        F.close fs c fd;
        data);
      }
  in
  check_reads "gap between a truncate and a later write"
    (function
      | "WineFS" | "WineFS-Relaxed" -> String.make 2000 '\000'
      | _ -> String.make 2000 'o')
    got

let test_defect_splitfs_staged_shadow () =
  (* Known defect: a staged SplitFS write maps a whole staging block at
     its offset, so it shadows up to a block of earlier staged data after
     its end. *)
  let fs, _ = mk Splitfs.format in
  let c = cpu () in
  let fd = Splitfs.create fs c "/s" in
  let first = String.init 8000 (fun i -> Char.chr (65 + (i mod 26))) in
  ignore (Splitfs.pwrite fs c fd ~off:0 ~src:first);
  ignore (Splitfs.pwrite fs c fd ~off:1000 ~src:(String.make 10 '#'));
  let data = Splitfs.pread fs c fd ~off:0 ~len:8000 in
  Splitfs.close fs c fd;
  Alcotest.(check string) "before the second write" (String.sub first 0 1000)
    (String.sub data 0 1000);
  Alcotest.(check string) "the second write" (String.make 10 '#') (String.sub data 1000 10);
  Alcotest.(check string) "shadowed: rest of the staging block" (String.make 4086 '\000')
    (String.sub data 1010 4086);
  Alcotest.(check string) "after the staging block" (String.sub first 5096 2904)
    (String.sub data 5096 2904)

let suite =
  [
    Alcotest.test_case "NOVA log pages" `Quick test_nova_log_pages_fragment;
    Alcotest.test_case "NOVA append CoW amplification" `Quick test_nova_append_cow_amplification;
    Alcotest.test_case "NOVA overwrite relocates" `Quick test_nova_strict_overwrite_relocates;
    Alcotest.test_case "SplitFS staging + relink" `Quick test_splitfs_staging_relink;
    Alcotest.test_case "SplitFS rename drops staging" `Quick test_splitfs_rename_drops_staging;
    Alcotest.test_case "SplitFS O_TRUNC drops staging" `Quick test_splitfs_trunc_drops_staging;
    Alcotest.test_case "Strata digestion" `Quick test_strata_digestion;
    Alcotest.test_case "Strata cheap fsync" `Quick test_strata_cheap_fsync;
    Alcotest.test_case "ext4 zeroes at fault" `Quick test_ext4_unwritten_zeroing_on_fault;
    Alcotest.test_case "xfs never aligned" `Quick test_xfs_never_aligned;
    Alcotest.test_case "ext4 aligned when clean" `Quick test_ext4_aligned_when_clean;
    Alcotest.test_case "known defect: stale hole" `Quick test_defect_stale_hole;
    Alcotest.test_case "known defect: truncate re-exposes" `Quick test_defect_truncate_reexposes;
    Alcotest.test_case "known defect: SplitFS shadow" `Quick test_defect_splitfs_staged_shadow;
  ]
