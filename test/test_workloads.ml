(* Application workload models: correctness of the stores and drivers on
   top of WineFS, and the paper's qualitative effects. *)

open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Registry = Repro_baselines.Registry
module KV = Repro_workloads.Kvstore
module Ycsb = Repro_workloads.Ycsb
module Lmdb = Repro_workloads.Lmdb_model
module Pmemkv = Repro_workloads.Pmemkv_model
module Part = Repro_workloads.Part_model
module Fb = Repro_workloads.Filebench
module Pg = Repro_workloads.Pgbench
module Wt = Repro_workloads.Wiredtiger_model
module Micro = Repro_workloads.Micro

let winefs ?(size = 192 * Units.mib) () =
  let dev = Device.create ~size () in
  Registry.winefs.make dev (Types.config ~cpus:4 ~inodes_per_cpu:4096 ())

let cpu () = Cpu.make ~id:0 ()

let test_kvstore () =
  let store = KV.create (winefs ()) ~segment_bytes:(4 * Units.mib) ~value_bytes:512 () in
  let c = cpu () in
  for k = 0 to 999 do
    KV.insert store c ~key:k
  done;
  Alcotest.(check int) "count" 1000 (KV.key_count store);
  Alcotest.(check bool) "read hit" true (KV.read store c ~key:500);
  Alcotest.(check bool) "read miss" false (KV.read store c ~key:5000);
  KV.update store c ~key:500;
  Alcotest.(check int) "update keeps count" 1000 (KV.key_count store);
  Alcotest.(check int) "scan" 10 (KV.scan store c ~key:990 ~count:10);
  Alcotest.(check int) "scan clipped at end" 5 (KV.scan store c ~key:995 ~count:10)

let test_kvstore_scan () =
  (* Keys 0, 2, ..., 198, key 10 rewritten to a newer record. *)
  let mk () =
    let store =
      KV.create (winefs ~size:(64 * Units.mib) ()) ~segment_bytes:(4 * Units.mib)
        ~value_bytes:512 ()
    in
    let c = cpu () in
    for i = 0 to 99 do
      KV.insert store c ~key:(2 * i)
    done;
    KV.update store c ~key:10;
    (store, c)
  in
  let store, c = mk () in
  let t0 = Cpu.now c in
  Alcotest.(check int) "count = 0" 0 (KV.scan store c ~key:0 ~count:0);
  Alcotest.(check int) "count = 0 reads nothing" t0 (Cpu.now c);
  Alcotest.(check int) "start past the last key" 0 (KV.scan store c ~key:199 ~count:5);
  Alcotest.(check int) "range runs out before count" 3 (KV.scan store c ~key:193 ~count:10);
  (* A scan reads the same records, in the same order, as one read per
     key: the simulated clock and the mapping counters agree exactly. *)
  let a, ca = mk () and b, cb = mk () in
  Alcotest.(check int) "scan count" 20 (KV.scan a ca ~key:7 ~count:20);
  for i = 4 to 23 do
    Alcotest.(check bool) "read" true (KV.read b cb ~key:(2 * i))
  done;
  Alcotest.(check int) "same simulated time" (Cpu.now cb) (Cpu.now ca);
  Alcotest.(check (list (pair string int)))
    "same mapping counters"
    (Counters.snapshot (KV.vm_counters b))
    (Counters.snapshot (KV.vm_counters a))

let test_ycsb_mixes () =
  let store = KV.create (winefs ()) ~segment_bytes:(4 * Units.mib) ~value_bytes:256 () in
  let kv =
    {
      Ycsb.kv_read = (fun c k -> ignore (KV.read store c ~key:k));
      kv_update = (fun c k -> KV.update store c ~key:k);
      kv_insert = (fun c k -> KV.insert store c ~key:k);
      kv_scan = (fun c k n -> ignore (KV.scan store c ~key:k ~count:n));
    }
  in
  let load = Ycsb.run kv Load ~records:2000 ~operations:0 in
  Alcotest.(check int) "load ops" 2000 load.ops;
  Alcotest.(check int) "loaded" 2000 (KV.key_count store);
  List.iter
    (fun w ->
      let r = Ycsb.run kv w ~records:2000 ~operations:1000 in
      Alcotest.(check bool) (Ycsb.name w ^ " ran") true (r.ops = 1000 && r.kops_per_s > 0.))
    [ Ycsb.A; B; C; D; E; F ]

let test_lmdb () =
  let db = Lmdb.create (winefs ()) ~map_bytes:(32 * Units.mib) ~value_bytes:512 () in
  let r = Lmdb.fillseqbatch db ~batch:50 ~keys:2000 () in
  Alcotest.(check int) "all keys" 2000 r.keys;
  Alcotest.(check bool) "throughput" true (r.kops_per_s > 0.);
  let c = cpu () in
  Alcotest.(check bool) "read back" true (Lmdb.read db c ~key:1234);
  Alcotest.(check bool) "missing" false (Lmdb.read db c ~key:99999);
  (* Sparse-file + WineFS: the fault path should have produced hugepages,
     not 512 base faults per 2MB. *)
  Alcotest.(check bool)
    (Printf.sprintf "few faults (%d)" r.page_faults)
    true
    (r.page_faults < 200)

let test_lmdb_fault_gap () =
  (* xfs-DAX never places extents 2MB-aligned (footnote 1), so even on a
     clean file system LMDB's on-demand faults are all base-page faults;
     on aged ext4-DAX the same gap appears (fig7/Table 2 in the bench). *)
  let run factory =
    let dev = Device.create ~size:(192 * Units.mib) () in
    let h = (factory : Registry.factory).make dev (Types.config ~cpus:4 ~inodes_per_cpu:4096 ()) in
    let db = Lmdb.create h ~map_bytes:(32 * Units.mib) ~value_bytes:512 () in
    (Lmdb.fillseqbatch db ~keys:4000 ()).page_faults
  in
  let winefs_faults = run Registry.winefs and xfs_faults = run Registry.xfs_dax in
  Alcotest.(check bool)
    (Printf.sprintf "xfs %d >> winefs %d (Table 2)" xfs_faults winefs_faults)
    true
    (xfs_faults > 20 * max 1 winefs_faults)

let test_pmemkv () =
  let db = Pmemkv.create (winefs ()) ~pool_bytes:(8 * Units.mib) ~value_bytes:1024 () in
  let r = Pmemkv.fillseq db ~threads:4 ~keys:4000 in
  Alcotest.(check int) "keys" 4000 r.keys;
  let c = cpu () in
  Alcotest.(check bool) "get" true (Pmemkv.get db c ~key:3999);
  Alcotest.(check bool) "get miss" false (Pmemkv.get db c ~key:12345)

let test_part () =
  let t = Part.create (winefs ()) ~pool_bytes:(24 * Units.mib) () in
  let c = cpu () in
  for i = 0 to 4999 do
    Part.insert t c ~key:(i * 977) ~value:i
  done;
  Alcotest.(check (option int)) "lookup" (Some 42) (Part.lookup t c ~key:(42 * 977));
  Alcotest.(check (option int)) "miss" None (Part.lookup t c ~key:123456789);
  let r = Part.lookup_latency_cdf t ~keys:1000 ~hot_set:100 ~lookups:2000 () in
  Alcotest.(check int) "lookups timed" 2000 (Histogram.count r.hist);
  Alcotest.(check bool) "median positive" true (Histogram.percentile r.hist 50. > 0)

let test_filebench_personalities () =
  List.iter
    (fun p ->
      let r = Fb.run (winefs ()) ~personality:p ~threads:4 ~files:60 ~ops_per_thread:25 () in
      Alcotest.(check bool) (Fb.name p ^ " ran") true (r.ops = 100 && r.kops_per_s > 0.))
    Fb.all

let test_pgbench () =
  let r = Pg.run (winefs ()) ~threads:4 ~scale_pages:64 ~txns_per_thread:25 () in
  Alcotest.(check int) "txns" 100 r.txns;
  Alcotest.(check bool) "tps" true (r.tps > 0.)

let test_wiredtiger () =
  let h = winefs () in
  let fill = Wt.run h ~mode:`FillRandom ~threads:4 ~keys:0 ~ops_per_thread:50 () in
  Alcotest.(check int) "fill ops" 200 fill.ops;
  let h2 = winefs () in
  let read = Wt.run h2 ~mode:`ReadRandom ~threads:4 ~keys:100 ~ops_per_thread:50 () in
  Alcotest.(check int) "read ops" 200 read.ops

let test_wiredtiger_nova_penalty () =
  (* §5.5: NOVA pays partial-block CoW on unaligned appends. *)
  let run factory =
    let dev = Device.create ~size:(192 * Units.mib) () in
    let h = (factory : Registry.factory).make dev (Types.config ~cpus:4 ~inodes_per_cpu:4096 ()) in
    (Wt.run h ~mode:`FillRandom ~threads:4 ~keys:0 ~ops_per_thread:200 ()).kops_per_s
  in
  let winefs_kops = run Registry.winefs and nova_kops = run Registry.nova in
  Alcotest.(check bool)
    (Printf.sprintf "WineFS %.0f > NOVA %.0f on FillRandom" winefs_kops nova_kops)
    true (winefs_kops > nova_kops)

let test_micro_mmap_vs_syscall () =
  (* §2.1: mmap sequential writes beat syscall writes. *)
  let h = winefs () in
  let io = 16 * Units.mib in
  let m =
    Micro.mmap_rw h ~path:"/m" ~file_bytes:io ~io_bytes:io ~chunk:Units.huge_page
      ~mode:`Seq_write ()
  in
  let s =
    Micro.syscall_rw h ~path:"/s" ~file_bytes:io ~io_bytes:io ~chunk:Units.base_page
      ~fsync_every:1000000 ~mode:`Seq_write ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "mmap %.0f > syscall %.0f MB/s" m.mb_per_s s.mb_per_s)
    true
    (m.mb_per_s > 1.5 *. s.mb_per_s)

let test_scalability_monotone () =
  let make threads () =
    let dev = Device.create ~size:(128 * Units.mib) () in
    Registry.winefs.make dev (Types.config ~cpus:(max 4 threads) ~inodes_per_cpu:2048 ())
  in
  let p1 = Micro.scalability (make 1) ~threads:1 ~files_per_thread:2 ~appends_per_file:8 in
  let p8 = Micro.scalability (make 8) ~threads:8 ~files_per_thread:2 ~appends_per_file:8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads (%.0f) > 4x one thread (%.0f)" p8.kops_per_s p1.kops_per_s)
    true
    (p8.kops_per_s > 4. *. p1.kops_per_s)

let test_rsync_xattr_preserves_alignment () =
  (* §3.6: carrying the alignment xattr across an rsync-style copy keeps
     large files hugepage-mappable on an aged receiver. *)
  let module R = Repro_workloads.Rsync_model in
  let module G = Repro_aging.Geriatrix in
  let mk_aged () =
    let dev = Device.create ~size:(256 * Units.mib) () in
    let h = Registry.winefs.make dev (Types.config ~cpus:4 ~inodes_per_cpu:4096 ()) in
    ignore (G.age h ~profile:G.agrawal ~target_util:0.5 ~churn_bytes:(2 * Units.gib) ());
    h
  in
  let copy with_xattrs =
    let src = winefs ~size:(256 * Units.mib) () in
    R.populate src ~seed:5 ~large_files:3 ~small_files:10;
    let r = R.copy_tree ~with_xattrs src (mk_aged ()) in
    (r.huge_mappable_bytes, r.large_file_bytes)
  in
  let with_x, total = copy true in
  let without_x, _ = copy false in
  Alcotest.(check int) "xattr copy fully mappable" total with_x;
  Alcotest.(check bool)
    (Printf.sprintf "no-xattr copy loses hugepages (%d < %d)" without_x with_x)
    true (without_x < with_x)

let suite =
  [
    Alcotest.test_case "rsync xattr preserves alignment" `Slow
      test_rsync_xattr_preserves_alignment;
    Alcotest.test_case "kvstore" `Quick test_kvstore;
    Alcotest.test_case "kvstore scan" `Quick test_kvstore_scan;
    Alcotest.test_case "ycsb mixes" `Quick test_ycsb_mixes;
    Alcotest.test_case "lmdb" `Quick test_lmdb;
    Alcotest.test_case "lmdb fault gap" `Quick test_lmdb_fault_gap;
    Alcotest.test_case "pmemkv" `Quick test_pmemkv;
    Alcotest.test_case "p-art" `Quick test_part;
    Alcotest.test_case "filebench personalities" `Quick test_filebench_personalities;
    Alcotest.test_case "pgbench" `Quick test_pgbench;
    Alcotest.test_case "wiredtiger" `Quick test_wiredtiger;
    Alcotest.test_case "wiredtiger NOVA penalty" `Quick test_wiredtiger_nova_penalty;
    Alcotest.test_case "mmap vs syscall" `Quick test_micro_mmap_vs_syscall;
    Alcotest.test_case "scalability monotone" `Quick test_scalability_monotone;
  ]
