(* Golden regression tests.

   One fixed, deterministic workload (2 CPUs) is replayed against a file
   system; the resulting PM image CRC32C, the operation/byte counter
   snapshot and both CPUs' simulated clocks must match pinned values.
   Any drift in journal traffic, allocation order, on-PM encodings,
   counter accounting or cost charging shows up here as a diff.

   - WineFS on the free cost model, pinned before the
     Txn/Inode/Extent_map/Datapath/Namespace split of the core.
   - Every [Registry.all] factory on the default (Optane) cost model,
     with a namespace tail (mkdir, rename over a file, O_TRUNC, rmdir),
     plus one 4-thread [Micro.scalability] point.  The threaded phase is
     the one that sees where a file system takes its journal lock
     relative to its directory-index update: the single-threaded phase
     does not, because [Dir_index] only advances the calling CPU's
     clock. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Registry = Repro_baselines.Registry

let mib = Units.mib

(* Deterministic payload: same bytes on every run. *)
let pattern n seed = String.init n (fun i -> Char.chr ((i + (31 * seed)) land 0xff))

let expected_image_crc = 0x5d8dd747

let expected_counters =
  [
    ("fs.alloc_bytes", 4354048);
    ("fs.cow_bytes", 12288);
    ("fs.create", 22);
    ("fs.data_journal_bytes", 70000);
    ("fs.fallocate", 1);
    ("fs.fsync", 21);
    ("fs.ftruncate", 2);
    ("fs.mkdir", 2);
    ("fs.read_bytes", 80000);
    ("fs.rename", 1);
    ("fs.unlink", 7);
    ("fs.write_bytes", 204808);
  ]

let workload (type a) (module Fs : Fs_intf.S with type t = a) (fs : a) c0 c1 =
  Fs.mkdir fs c0 "/d";
  Fs.mkdir fs c0 "/d/sub";
  let fd = Fs.create fs c0 "/d/file" in
  ignore (Fs.pwrite fs c0 fd ~off:0 ~src:(pattern 10_000 1));
  ignore (Fs.pwrite fs c0 fd ~off:4096 ~src:(pattern 8192 2));
  Fs.fallocate fs c0 fd ~off:0 ~len:(4 * mib);
  ignore (Fs.append fs c0 fd ~src:(pattern 5000 3));
  Fs.ftruncate fs c0 fd (3 * mib);
  Fs.fsync fs c0 fd;
  Fs.close fs c0 fd;
  Fs.set_xattr_align fs c0 "/d/file" true;
  let fd2 = Fs.openf fs c0 "/d/file" Types.o_rdwr in
  ignore (Fs.pwrite fs c0 fd2 ~off:(2 * mib) ~src:(pattern 70_000 4));
  Fs.close fs c0 fd2;
  for i = 0 to 19 do
    let p = Printf.sprintf "/d/sub/f%d" i in
    let fd = Fs.create fs c1 p in
    ignore (Fs.pwrite fs c1 fd ~off:0 ~src:(pattern (512 * (i + 1)) i));
    Fs.fsync fs c1 fd;
    Fs.close fs c1 fd;
    if i mod 3 = 0 then Fs.unlink fs c1 p
  done;
  Fs.rename fs c0 ~old_path:"/d/sub/f1" ~new_path:"/d/renamed";
  let fd3 = Fs.create fs c0 "/sparse" in
  Fs.ftruncate fs c0 fd3 (8 * mib);
  ignore (Fs.pwrite fs c0 fd3 ~off:(5 * mib) ~src:(pattern 4096 9));
  Fs.close fs c0 fd3;
  ignore (Fs.readdir fs c0 "/d");
  ignore (Fs.stat fs c0 "/d/renamed");
  let fd4 = Fs.openf fs c0 "/d/file" Types.o_rdonly in
  ignore (Fs.pread fs c0 fd4 ~off:0 ~len:10_000);
  ignore (Fs.pread fs c0 fd4 ~off:(2 * mib) ~len:70_000);
  Fs.close fs c0 fd4

(* The namespace operations [workload] leaves out: a directory that is
   created and removed, a cross-directory rename over an existing file,
   and an O_TRUNC open of a non-empty file. *)
let namespace_tail (type a) (module Fs : Fs_intf.S with type t = a) (fs : a) c0 c1 =
  Fs.mkdir fs c1 "/e";
  Fs.rename fs c1 ~old_path:"/d/sub/f2" ~new_path:"/d/renamed";
  let fd = Fs.openf fs c0 "/d/file" { Types.o_rdwr with trunc = true } in
  ignore (Fs.pwrite fs c0 fd ~off:0 ~src:(pattern 3000 5));
  Fs.fsync fs c0 fd;
  Fs.close fs c0 fd;
  Fs.rmdir fs c1 "/e";
  ignore (Fs.readdir fs c0 "/d/sub");
  ignore (Fs.stat fs c0 "/d/file");
  ignore (Fs.stat fs c1 "/d/renamed")

let run_workload () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(64 * mib) () in
  let cfg = Types.config ~cpus:2 ~mode:Types.Strict ~inodes_per_cpu:256 () in
  let fs = Winefs.Fs.format dev cfg in
  let c0 = Cpu.make ~id:0 () in
  workload (module Winefs.Fs) fs c0 (Cpu.make ~id:1 ());
  Winefs.Fs.unmount fs c0;
  (dev, fs)

let image_crc dev =
  let size = Device.size dev in
  let chunk = 65536 in
  let buf = Bytes.create chunk in
  let crc = ref Crc32c.init in
  let off = ref 0 in
  while !off < size do
    let n = min chunk (size - !off) in
    Device.peek dev ~off:!off ~len:n ~dst:buf ~dst_off:0;
    crc := Crc32c.update !crc buf ~off:0 ~len:n;
    off := !off + n
  done;
  Crc32c.finish !crc

let test_image_crc () =
  let dev, _fs = run_workload () in
  Alcotest.(check int) "PM image CRC32C" expected_image_crc (image_crc dev)

let test_counter_totals () =
  let _dev, fs = run_workload () in
  Alcotest.(check (list (pair string int)))
    "counter snapshot" expected_counters
    (Counters.snapshot (Winefs.Fs.counters fs))

(* ------------------------------------------------------------------ *)
(* Every registry factory                                              *)

type pin = {
  crc : int;
  counters : (string * int) list;
  now0 : int;  (** CPU 0's simulated clock after the run *)
  now1 : int;
  kops_per_s : float;  (** the 4-thread scalability point *)
  lock_wait_ns : int;
}

let observe (factory : Registry.factory) =
  let dev = Device.create ~size:(64 * mib) () in
  let cfg = Types.config ~cpus:2 ~mode:Types.Strict ~inodes_per_cpu:256 () in
  let (Fs_intf.Handle ((module Fs), fs)) = factory.make dev cfg in
  let c0 = Cpu.make ~id:0 () and c1 = Cpu.make ~id:1 () in
  workload (module Fs) fs c0 c1;
  namespace_tail (module Fs) fs c0 c1;
  Fs.unmount fs c0;
  let make () =
    factory.make (Device.create ~size:(64 * mib) ()) (Types.config ~cpus:4 ~inodes_per_cpu:256 ())
  in
  let p =
    Repro_workloads.Micro.scalability make ~threads:4 ~files_per_thread:4 ~appends_per_file:4
  in
  {
    crc = image_crc dev;
    counters = Counters.snapshot (Fs.counters fs);
    now0 = Cpu.now c0;
    now1 = Cpu.now c1;
    kops_per_s = p.kops_per_s;
    lock_wait_ns = p.lock_wait_ns;
  }

(* Captured on the commit before the baselines' namespaces were merged
   into one module; the merge had to leave every value unchanged. *)
let expected =
  [
    ( "WineFS",
      {
        crc = 0x91698feb;
        counters =
          [
            ("fs.alloc_bytes", 4358144);
            ("fs.cow_bytes", 12288);
            ("fs.create", 22);
            ("fs.data_journal_bytes", 70000);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1172056;
        now1 = 174183;
        kops_per_s = 1884.814287;
        lock_wait_ns = 714;
      } );
    ( "WineFS-Relaxed",
      {
        crc = 0x6e9b18fb;
        counters =
          [
            ("fs.alloc_bytes", 4358144);
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1167565;
        now1 = 207625;
        kops_per_s = 1520.175580;
        lock_wait_ns = 400;
      } );
    ( "ext4-DAX",
      {
        crc = 0x5bddbba2;
        counters =
          [
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 94779;
        now1 = 149796;
        kops_per_s = 924.481424;
        lock_wait_ns = 346912;
      } );
    ( "xfs-DAX",
      {
        crc = 0x476fc930;
        counters =
          [
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 94779;
        now1 = 149796;
        kops_per_s = 924.481424;
        lock_wait_ns = 346912;
      } );
    ( "PMFS",
      {
        crc = 0x1cdb7480;
        counters =
          [
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1158977;
        now1 = 234318;
        kops_per_s = 1164.975026;
        lock_wait_ns = 69322;
      } );
    ( "NOVA",
      {
        crc = 0xc6579805;
        counters =
          [
            ("fs.cow_copy_bytes", 3728);
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.log_appends", 92);
            ("fs.log_invalidations", 14);
            ("fs.log_pages", 26);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1113637;
        now1 = 113003;
        kops_per_s = 3136.762861;
        lock_wait_ns = 0;
      } );
    ( "NOVA-Relaxed",
      {
        crc = 0x2669b96f;
        counters =
          [
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.log_appends", 116);
            ("fs.log_invalidations", 11);
            ("fs.log_pages", 26);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1140623;
        now1 = 141703;
        kops_per_s = 2081.165453;
        lock_wait_ns = 0;
      } );
    ( "SplitFS",
      {
        crc = 0xb2e0b06b;
        counters =
          [
            ("fs.create", 22);
            ("fs.fallocate", 1);
            ("fs.fsync", 24);
            ("fs.ftruncate", 2);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
          ];
        now0 = 62811;
        now1 = 107552;
        kops_per_s = 1567.183184;
        lock_wait_ns = 210808;
      } );
    ( "Strata",
      {
        crc = 0x559868f6;
        counters =
          [
            ("fs.create", 22);
            ("fs.digested_bytes", 171968);
            ("fs.digests", 4);
            ("fs.fallocate", 1);
            ("fs.fsync", 22);
            ("fs.ftruncate", 2);
            ("fs.log_meta", 38);
            ("fs.mkdir", 3);
            ("fs.read_bytes", 80000);
            ("fs.rename", 2);
            ("fs.rmdir", 1);
            ("fs.unlink", 7);
            ("fs.write_bytes", 207808);
          ];
        now0 = 1257192;
        now1 = 81080;
        kops_per_s = 3771.450123;
        lock_wait_ns = 0;
      } );
  ]

let test_factory (factory : Registry.factory) () =
  let want = List.assoc factory.fs_name expected in
  let got = observe factory in
  Alcotest.(check int) "PM image CRC32C" want.crc got.crc;
  Alcotest.(check (list (pair string int))) "counter snapshot" want.counters got.counters;
  Alcotest.(check int) "CPU 0 clock" want.now0 got.now0;
  Alcotest.(check int) "CPU 1 clock" want.now1 got.now1;
  Alcotest.(check (float 5e-7)) "4-thread kops/s" want.kops_per_s got.kops_per_s;
  Alcotest.(check int) "4-thread lock wait ns" want.lock_wait_ns got.lock_wait_ns

let suite =
  [
    Alcotest.test_case "golden image CRC" `Quick test_image_crc;
    Alcotest.test_case "golden counter totals" `Quick test_counter_totals;
  ]
  @ List.map
      (fun (f : Registry.factory) ->
        Alcotest.test_case ("golden factory " ^ f.fs_name) `Quick (test_factory f))
      Registry.all
