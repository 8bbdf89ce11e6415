(* Host-cost benchmark of the WineFS reproduction: one unit of one
   workload per process.

     bench.exe --workload (age|crash|apps) --seed N --setups K --trace (0|1)

   Closed loop: one simulated client, each operation issued after the
   previous one returns, no threads.  A unit is a timed set-up, a timed
   measured phase and untimed correctness checks; K > 1 adds timed
   set-ups after it (see [run_unit]).

   --trace 0: Repro_stats and every timing wrapper stay off.

   --trace 1: Repro_stats on, and spans taken in this file around the
   calls into each layer: the Fs_intf.S wrapper [Timed], Geriatrix,
   Kvstore/Ycsb/Micro, Device and the WineFS lifecycle.  For [crash] the
   measured phase is a stage-by-stage replay of Checker.run through
   public functions.  Nothing inside lib/ changes.

   The last stdout line is one JSON object: the digest of the simulated
   outputs, the checks attempted and failed, the set-up times and raw
   metrics.  The digested text goes to stderr.  perfbench/run.py runs
   the units and prints the benchmark's result line. *)

open Repro_util
open Repro_vfs
module Device = Repro_pmem.Device
module Registry = Repro_baselines.Registry
module G = Repro_aging.Geriatrix
module Ace = Repro_crashcheck.Ace
module Checker = Repro_crashcheck.Checker
module Fsck = Repro_fsck.Fsck
module Kv = Repro_workloads.Kvstore
module Ycsb = Repro_workloads.Ycsb
module Micro = Repro_workloads.Micro
module Stats = Repro_stats.Stats
module Json = Repro_stats.Json
module Wfs = Winefs.Fs

(* Workload sizes.  Aging targets the Fig 1/3 setting (Agrawal profile,
   75% utilisation) at a device size that keeps one unit to a few host
   seconds; the crash campaign keeps Checker.run's defaults. *)
let target_util = 0.75

(* Geriatrix holds utilisation at the target before each create and caps
   a file at capacity/8, so one file either way bounds the end state. *)
let util_band = (target_util -. 0.125, target_util +. 0.125)
let age_device = 128 * Units.mib
let age_churn = 16 * age_device
let apps_device = 256 * Units.mib
let apps_churn = 4 * apps_device
let ycsb_records = 4_000
let ycsb_operations = 10_000
let micro_file = 8 * Units.mib
let micro_io = 4 * micro_file
let micro_chunk = 4 * Units.kib
let readback_samples = 8

(* Checker.run's fixed parameters, which the crash replay mirrors. *)
let crash_device = 48 * Units.mib
let crash_cfg = Types.config ~cpus:2 ~inodes_per_cpu:256 ()
let crash_rng_seed = 0xC4A54
let crash_random_subsets = 24

let cfg = Types.config ~cpus:4 ~inodes_per_cpu:8192 ()
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
let slug = String.lowercase_ascii

(* {1 Checks} *)

let attempted = ref 0
let failed = ref 0
let failures = ref []

let record ~tried ~bad what =
  attempted := !attempted + tried;
  failed := !failed + bad;
  if bad > 0 && List.length !failures < 20 then failures := what :: !failures

let check ok what = record ~tried:1 ~bad:(if ok then 0 else 1) what

(* {1 Spans} *)

let tracing = ref false

type span = { mutable calls : int; mutable incl : float; mutable self : float }

let spans : (string, span) Hashtbl.t = Hashtbl.create 128

let span_named name =
  match Hashtbl.find_opt spans name with
  | Some s -> s
  | None ->
      let s = { calls = 0; incl = 0.; self = 0. } in
      Hashtbl.add spans name s;
      s

(* Time of the spans nested in each open span, innermost first. *)
let open_spans : float ref list ref = ref []

let timed s f =
  if not !tracing then f ()
  else begin
    let nested = ref 0. in
    open_spans := nested :: !open_spans;
    let t0 = now () in
    let close () =
      let dt = now () -. t0 in
      (match !open_spans with
      | _ :: (parent :: _ as rest) ->
          parent := !parent +. dt;
          open_spans := rest
      | _ -> open_spans := []);
      s.calls <- s.calls + 1;
      s.incl <- s.incl +. dt;
      s.self <- s.self +. (dt -. !nested)
    in
    match f () with
    | v ->
        close ();
        v
    | exception e ->
        close ();
        raise e
  end

let sp_pmem_create = span_named "pmem.create"
let sp_crash_image = span_named "pmem.crash_image"
let sp_format = span_named "core.format"
let sp_mount = span_named "core.mount"
let sp_aging = span_named "aging"
let sp_apply = span_named "crashcheck.apply"
let sp_signature = span_named "crashcheck.signature"
let sp_kv_read = span_named "workloads.kv.read"
let sp_kv_update = span_named "workloads.kv.update"
let sp_kv_insert = span_named "workloads.kv.insert"
let sp_kv_scan = span_named "workloads.kv.scan"
let sp_mmap_rw = span_named "workloads.mmap_rw"
let sp_syscall_rw = span_named "workloads.syscall_rw"

(* Delegates every call of [F], timing each operation that takes a CPU
   (plus statfs) under vfs.<fs>.<op>. *)
module Timed (F : Fs_intf.S) : Fs_intf.S with type t = F.t = struct
  include F

  let sp op = span_named (Printf.sprintf "vfs.%s.%s" (slug F.name) op)
  let sp_mkdir = sp "mkdir"
  let sp_rmdir = sp "rmdir"
  let sp_create = sp "create"
  let sp_openf = sp "openf"
  let sp_close = sp "close"
  let sp_unlink = sp "unlink"
  let sp_rename = sp "rename"
  let sp_readdir = sp "readdir"
  let sp_stat = sp "stat"
  let sp_exists = sp "exists"
  let sp_pwrite = sp "pwrite"
  let sp_pwrite_sub = sp "pwrite_sub"
  let sp_pread = sp "pread"
  let sp_append = sp "append"
  let sp_fsync = sp "fsync"
  let sp_fallocate = sp "fallocate"
  let sp_ftruncate = sp "ftruncate"
  let sp_statfs = sp "statfs"
  let mkdir t cpu p = timed sp_mkdir (fun () -> F.mkdir t cpu p)
  let rmdir t cpu p = timed sp_rmdir (fun () -> F.rmdir t cpu p)
  let create t cpu p = timed sp_create (fun () -> F.create t cpu p)
  let openf t cpu p fl = timed sp_openf (fun () -> F.openf t cpu p fl)
  let close t cpu fd = timed sp_close (fun () -> F.close t cpu fd)
  let unlink t cpu p = timed sp_unlink (fun () -> F.unlink t cpu p)

  let rename t cpu ~old_path ~new_path =
    timed sp_rename (fun () -> F.rename t cpu ~old_path ~new_path)

  let readdir t cpu p = timed sp_readdir (fun () -> F.readdir t cpu p)
  let stat t cpu p = timed sp_stat (fun () -> F.stat t cpu p)
  let exists t cpu p = timed sp_exists (fun () -> F.exists t cpu p)
  let pwrite t cpu fd ~off ~src = timed sp_pwrite (fun () -> F.pwrite t cpu fd ~off ~src)

  let pwrite_sub t cpu fd ~off ~src ~src_off ~len =
    timed sp_pwrite_sub (fun () -> F.pwrite_sub t cpu fd ~off ~src ~src_off ~len)

  let pread t cpu fd ~off ~len = timed sp_pread (fun () -> F.pread t cpu fd ~off ~len)
  let append t cpu fd ~src = timed sp_append (fun () -> F.append t cpu fd ~src)
  let fsync t cpu fd = timed sp_fsync (fun () -> F.fsync t cpu fd)

  let fallocate t cpu fd ~off ~len =
    timed sp_fallocate (fun () -> F.fallocate t cpu fd ~off ~len)

  let ftruncate t cpu fd n = timed sp_ftruncate (fun () -> F.ftruncate t cpu fd n)
  let statfs t = timed sp_statfs (fun () -> F.statfs t)
end

let with_timing (Fs_intf.Handle ((module F), fs) as h) =
  if not !tracing then h
  else
    let module T = Timed (F) in
    Fs_intf.Handle ((module T), fs)

(* A formatted instance: the raw handle for checks, and the handle the
   workload drives (timed when tracing). *)
let fresh (f : Registry.factory) ~size =
  let dev = timed sp_pmem_create (fun () -> Device.create ~size ()) in
  let make () = f.make dev cfg in
  let raw = if f.fs_name = Wfs.name then timed sp_format make else make () in
  (raw, with_timing raw)

(* Layer counts gathered by the workloads, reported by traced runs. *)
let counts : (string, int) Hashtbl.t = Hashtbl.create 16

let count name n =
  Hashtbl.replace counts name (n + Option.value ~default:0 (Hashtbl.find_opt counts name))

let age_one ~seed ~churn h =
  let r =
    timed sp_aging (fun () -> G.age h ~seed ~profile:G.agrawal ~target_util ~churn_bytes:churn ())
  in
  count "aging.files_created" r.files_created;
  count "aging.files_deleted" r.files_deleted;
  r

let check_util name (Fs_intf.Handle ((module F), fs)) =
  let u = Types.utilization (F.statfs fs) in
  let lo, hi = util_band in
  check
    (u >= lo && u <= hi)
    (Printf.sprintf "%s: utilisation %.4f outside [%.3f, %.3f]" name u lo hi)

let pp_report buf name (r : G.report) =
  Printf.bprintf buf
    "%s aged created=%d deleted=%d written=%d live=%d util=%.9f aligned=%d frag=%.9f\n"
    name r.files_created r.files_deleted r.bytes_written r.live_files r.utilization
    r.aligned_free_2m r.free_frag_ratio

let pp_statfs buf name (Fs_intf.Handle ((module F), fs)) =
  let s = F.statfs fs in
  Printf.bprintf buf "%s statfs cap=%d used=%d free=%d extents=%d largest=%d aligned2m=%d\n" name
    s.capacity s.used s.free s.free_extents s.largest_free s.aligned_free_2m

let cnt name = float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts name))

(* {1 Workloads}

   Each unit is [setup], a timed [measure], then an untimed [finish] that
   runs the correctness checks and returns (work units, digest text). *)

type ('env, 'res) workload = {
  setup : unit -> 'env;
  measure : 'env -> 'res;
  finish : 'env -> 'res -> float * string;
}

(* age: the Fig 1/3 trio, each aged from fresh. *)
let age_workload ~seed =
  let trio = [ Registry.winefs; Registry.nova; Registry.ext4_dax ] in
  {
    setup = (fun () -> List.map (fun f -> (f, fresh f ~size:age_device)) trio);
    measure = List.map (fun (_, (_, h)) -> age_one ~seed ~churn:age_churn h);
    finish =
      (fun env reports ->
        let buf = Buffer.create 1024 in
        let units =
          List.fold_left2
            (fun acc ((f : Registry.factory), (raw, _)) (r : G.report) ->
              pp_report buf f.fs_name r;
              pp_statfs buf f.fs_name raw;
              check_util f.fs_name raw;
              (if f.fs_name = Wfs.name then
                 let (Fs_intf.Handle ((module F), fs)) = raw in
                 F.unmount fs (Cpu.make ~id:0 ());
                 let rep = Fsck.run (F.device fs) in
                 let errors =
                   List.filter (fun (x : Fsck.finding) -> x.severity <> Fsck.Note) rep.findings
                 in
                 record ~tried:1
                   ~bad:(if errors = [] then 0 else 1)
                   ("fsck after aging: " ^ Fsck.to_string rep));
              acc +. (float_of_int r.bytes_written /. float_of_int Units.mib))
            0. env reports
        in
        (units, Buffer.contents buf));
  }

(* crash: the ACE seq-1 campaign, one Checker.run per workload. *)
let pp_crash buf name ~points ~states ~bad =
  Printf.bprintf buf "%s crash_points=%d states=%d failures=%d\n" name points states bad

let crash_finish () results =
  let buf = Buffer.create 1024 in
  let states =
    List.fold_left
      (fun acc (name, points, states, bad) ->
        pp_crash buf name ~points ~states ~bad:(List.length bad);
        record ~tried:states ~bad:(List.length bad)
          (Printf.sprintf "crash %s: %s" name (String.concat "; " bad));
        count "crashcheck.crash_points" points;
        count "crashcheck.states" states;
        acc + states)
      0 results
  in
  (float_of_int states, Buffer.contents buf)

(* Checker.run sets itself up; the benchmark's set-up is one fresh
   formatted device of the kind it makes for every crash point. *)
let crash_setup () =
  let dev =
    timed sp_pmem_create (fun () -> Device.create ~cost:Device.Cost.free ~size:crash_device ())
  in
  ignore (timed sp_format (fun () -> Wfs.format dev crash_cfg))

let crash_workload =
  {
    setup = crash_setup;
    measure =
      (fun () ->
        List.map
          (fun (w : Ace.workload) ->
            let r = Checker.run ~workloads:[ w ] () in
            (w.w_name, r.crash_points, r.states_checked, List.map snd r.failures))
          Ace.seq1);
    finish = crash_finish;
  }

(* The persisted-line subsets Checker.run enumerates at one crash point:
   all of them up to 6 pending lines, else fixed corner cases plus
   random samples drawn from the per-campaign RNG. *)
let persisted_subsets rng lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let index line =
    let rec go i = if i = n then None else if arr.(i) = line then Some i else go (i + 1) in
    go 0
  in
  if n = 0 then [ (fun _ -> false) ]
  else if n <= 6 then
    List.init (1 lsl n) (fun mask line ->
        match index line with Some i -> mask land (1 lsl i) <> 0 | None -> false)
  else
    let fixed =
      [ (fun _ -> false); (fun _ -> true) ]
      @ List.init (min n 8) (fun i line -> line <> arr.(i))
      @ List.init (min n 8) (fun i line -> line = arr.(i))
    in
    let random =
      List.init crash_random_subsets (fun _ ->
          let keep = Hashtbl.create 8 in
          Array.iter (fun l -> if Rng.bool rng then Hashtbl.replace keep l ()) arr;
          Hashtbl.mem keep)
    in
    fixed @ random

let wfs_handle fs = Fs_intf.Handle ((module Wfs : Fs_intf.S with type t = Wfs.t), fs)

(* Checker.run for one workload, stage by stage, through public
   functions only: the same crash points and states, each stage timed. *)
let replay_workload (w : Ace.workload) =
  let cpu = Cpu.make ~id:0 () in
  let rng = Rng.create crash_rng_seed in
  let fresh_wfs () =
    let dev =
      timed sp_pmem_create (fun () -> Device.create ~cost:Device.Cost.free ~size:crash_device ())
    in
    (dev, wfs_handle (timed sp_format (fun () -> Wfs.format dev crash_cfg)))
  in
  let apply h op = timed sp_apply (fun () -> Ace.apply h cpu op) in
  let signature h = timed sp_signature (fun () -> Checker.signature_of h cpu) in
  let _, ref_h = fresh_wfs () in
  List.iter (apply ref_h) w.setup;
  let first = signature ref_h in
  let rest =
    List.map
      (fun op ->
        apply ref_h op;
        signature ref_h)
      w.test
  in
  let expected = Array.of_list (first :: rest) in
  let bad = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> bad := s :: !bad) fmt in
  let rec explore target points states =
    let dev, h = fresh_wfs () in
    List.iter (apply h) w.setup;
    Device.set_tracking dev true;
    Device.reset_fence_seq dev;
    let captured = ref None in
    Device.set_fence_hook dev
      (Some
         (fun seq ->
           if seq = target && !captured = None then begin
             captured := Some (Device.pending_lines dev);
             Device.set_fence_hook dev None;
             raise Exit
           end));
    let done_ops = ref 0 in
    let crashed =
      try
        List.iter
          (fun op ->
            apply h op;
            incr done_ops)
          w.test;
        false
      with Exit -> true
    in
    Device.set_fence_hook dev None;
    if not crashed then (points, states)
    else begin
      let before = expected.(!done_ops) and after = expected.(!done_ops + 1) in
      let subsets = persisted_subsets rng (Option.value ~default:[] !captured) in
      List.iter
        (fun persisted ->
          let img = timed sp_crash_image (fun () -> Device.crash_image dev ~persisted) in
          count "pmem.crash_image.bytes" (Device.size img);
          match timed sp_mount (fun () -> Wfs.mount img crash_cfg) with
          | exception e -> fail "fence %d: recovery failed: %s" target (Printexc.to_string e)
          | fs2 -> (
              count "sim.recovery_ns" (Wfs.recovery_ns fs2);
              match signature (wfs_handle fs2) with
              | s when s = before || s = after -> ()
              | _ -> fail "fence %d: recovered state matches neither side of op %d" target !done_ops
              | exception e ->
                  fail "fence %d: post-recovery walk failed: %s" target (Printexc.to_string e)))
        subsets;
      explore (target + 1) (points + 1) (states + List.length subsets)
    end
  in
  let points, states = explore 1 0 0 in
  (w.w_name, points, states, List.rev !bad)

let crash_replay = { crash_workload with measure = (fun () -> List.map replay_workload Ace.seq1) }

(* apps: aged WineFS and NOVA, then YCSB Load and A-F on Kvstore and the
   Micro mmap/syscall read/write mixes. *)
type app_run = {
  ycsb : (Ycsb.workload * Ycsb.result) list;
  micro : (string * Micro.rw_result) list;
  kv_reads : int;
  kv_misses : int;
  vm : Counters.t;  (** the Kvstore mapping's counters *)
}

let micro_modes =
  [ ("seq_write", `Seq_write); ("rand_write", `Rand_write); ("seq_read", `Seq_read);
    ("rand_read", `Rand_read) ]

let mmap_path = "/mmap.dat"
let syscall_path = "/syscall.dat"

let run_apps ~seed h =
  let store = Kv.create h () in
  let reads = ref 0 and misses = ref 0 in
  let kv =
    {
      Ycsb.kv_read =
        (fun cpu k ->
          timed sp_kv_read (fun () ->
              incr reads;
              if not (Kv.read store cpu ~key:k) then incr misses));
      kv_update = (fun cpu k -> timed sp_kv_update (fun () -> Kv.update store cpu ~key:k));
      kv_insert = (fun cpu k -> timed sp_kv_insert (fun () -> Kv.insert store cpu ~key:k));
      kv_scan =
        (fun cpu k n -> timed sp_kv_scan (fun () -> ignore (Kv.scan store cpu ~key:k ~count:n)));
    }
  in
  let ycsb =
    List.map
      (fun w -> (w, Ycsb.run kv ~seed w ~records:ycsb_records ~operations:ycsb_operations))
      Ycsb.all
  in
  let micro kind sp run =
    List.map
      (fun (mode_name, mode) ->
        (Printf.sprintf "%s.%s" kind mode_name, timed sp (fun () -> run mode)))
      micro_modes
  in
  let file_bytes = micro_file and io_bytes = micro_io and chunk = micro_chunk in
  let mm =
    micro "mmap" sp_mmap_rw (fun mode ->
        Micro.mmap_rw h ~seed ~path:mmap_path ~file_bytes ~io_bytes ~chunk ~mode ())
  in
  let sc =
    micro "syscall" sp_syscall_rw (fun mode ->
        Micro.syscall_rw h ~seed ~path:syscall_path ~file_bytes ~io_bytes ~chunk ~mode ())
  in
  { ycsb; micro = mm @ sc; kv_reads = !reads; kv_misses = !misses; vm = Kv.vm_counters store }

(* Sampled pread of the Micro files: both ended with a full sequential
   pass of one payload byte ('m' through the mapping, 's' through
   pwrite), so every chunk must read back as that byte. *)
let readback ~seed (Fs_intf.Handle ((module F), fs)) =
  let cpu = Cpu.make ~id:0 () in
  let rng = Rng.create seed in
  List.iter
    (fun (path, byte) ->
      let fd = F.openf fs cpu path Types.o_rdonly in
      let want = String.make micro_chunk byte in
      for _ = 1 to readback_samples do
        let off = Rng.int rng (micro_file / micro_chunk) * micro_chunk in
        check
          (F.pread fs cpu fd ~off ~len:micro_chunk = want)
          (Printf.sprintf "%s %s: bytes at %d differ from the written payload" F.name path off)
      done;
      F.close fs cpu fd)
    [ (mmap_path, 'm'); (syscall_path, 's') ]

let apps_workload ~seed =
  {
    setup =
      (fun () ->
        List.map
          (fun factory ->
            let raw, h = fresh factory ~size:apps_device in
            ignore (age_one ~seed ~churn:apps_churn h);
            (factory, raw, h))
          [ Registry.winefs; Registry.nova ]);
    measure = List.map (fun (_, _, h) -> run_apps ~seed h);
    finish =
      (fun env runs ->
        let buf = Buffer.create 1024 in
        let units =
          List.fold_left2
            (fun acc ((f : Registry.factory), raw, _) a ->
              let name = f.fs_name in
              let fs = slug name in
              record ~tried:a.kv_reads ~bad:a.kv_misses
                (Printf.sprintf "%s: %d YCSB reads of loaded keys found nothing" name a.kv_misses);
              readback ~seed raw;
              let vm = a.vm in
              let faults = Counters.get vm "mm.page_faults" in
              let tlb = Counters.get vm "mm.tlb_misses" in
              Printf.bprintf buf "%s kv faults=%d tlb_misses=%d huge_faults=%d\n" name faults tlb
                (Counters.get vm "mm.huge_faults");
              count ("memsim." ^ fs ^ ".page_faults") faults;
              count "memsim.page_faults" faults;
              count "memsim.tlb_misses" tlb;
              count "memsim.huge_mapped_bytes" (Counters.get vm "mm.huge_faults" * Units.huge_page);
              let ops =
                List.fold_left
                  (fun n (w, (r : Ycsb.result)) ->
                    Printf.bprintf buf "%s ycsb %s ops=%d sim_ns=%d kops=%.9f\n" name (Ycsb.name w)
                      r.ops r.elapsed_ns r.kops_per_s;
                    n + r.ops)
                  0 a.ycsb
              in
              let ios =
                List.fold_left
                  (fun n (label, (r : Micro.rw_result)) ->
                    Printf.bprintf buf
                      "%s %s bytes=%d sim_ns=%d mb_per_s=%.9f faults=%d tlb_misses=%d fault_ns=%d\n"
                      name label r.bytes r.elapsed_ns r.mb_per_s r.page_faults r.tlb_misses
                      r.fault_ns;
                    count ("memsim." ^ fs ^ ".page_faults") r.page_faults;
                    count "memsim.page_faults" r.page_faults;
                    count "memsim.tlb_misses" r.tlb_misses;
                    n + (r.bytes / micro_chunk))
                  0 a.micro
              in
              pp_statfs buf name raw;
              acc +. float_of_int (ops + ios))
            0. env runs
        in
        (units, Buffer.contents buf));
  }

(* {1 Running a unit} *)

type outcome = {
  units : float;
  setups_s : float list;
  measured_s : float;
  major_words : float;
  digest : string;
}

let major_words () =
  let _, _, w = Gc.counters () in
  w

(* One timed set-up, the measured phase on it, then the checks.  With
   [setups] > 1, more timed set-ups follow (discarded) until there are
   [setups] and a second of set-up time, so a set-up of a few
   milliseconds still gets a median of many samples.  They come after
   the measured phase because the runtime's major-word count depends on
   the GC state a unit starts in: identical repeats in one process read
   8.6-10.7 Mwords.  Every unit runs in a fresh process, right after its
   first set-up, and so starts from the same state. *)
let run_unit wl ~setups =
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let env = wl.setup () in
    (env, now () -. t0)
  in
  let env, first_setup = setup () in
  Gc.full_major ();
  let w0 = major_words () in
  let t1 = now () in
  let res = wl.measure env in
  let measured_s = now () -. t1 in
  let major = major_words () -. w0 in
  let units, text = wl.finish env res in
  prerr_string text;
  let rec more n total times =
    if n >= setups && (setups = 1 || total >= 1.0) then List.rev times
    else
      let _, dt = setup () in
      more (n + 1) (total +. dt) (dt :: times)
  in
  {
    units;
    setups_s = more 1 first_setup [ first_setup ];
    measured_s;
    major_words = major;
    digest = Digest.to_hex (Digest.string text);
  }

let end_to_end wl ~setups =
  let o = run_unit wl ~setups in
  ( o,
    [
      ("units_per_s", o.units /. o.measured_s);
      ("major_mwords", o.major_words /. 1e6);
      ("crashcheck.crash_points", cnt "crashcheck.crash_points");
      ("crashcheck.states", cnt "crashcheck.states");
    ] )

let vfs_ops =
  [ "create"; "pwrite_sub"; "pwrite"; "pread"; "unlink"; "fsync"; "close"; "statfs"; "exists";
    "fallocate" ]

let sim_ops = [ "create"; "open"; "close"; "pwrite"; "pread"; "fsync"; "unlink"; "fallocate" ]

(* Sum of a Repro_stats counter over all its label sets, optionally only
   those carrying [label]. *)
let stat_sum ?label (snap : Stats.snapshot) name =
  List.fold_left
    (fun acc (n, labels, v) ->
      if n = name && match label with None -> true | Some l -> List.mem l labels then acc + v
      else acc)
    0 snap.s_counters

let stat_gauge (snap : Stats.snapshot) name =
  List.fold_left (fun acc (n, _, v) -> if n = name then acc + v else acc) 0 snap.s_gauges

let traced wl =
  tracing := true;
  Stats.set_enabled true;
  Stats.reset ();
  let o = run_unit wl ~setups:1 in
  let snap = Stats.snapshot () in
  let sp name = span_named name in
  let host name = ((name ^ ".host_s"), (sp name).incl) in
  let fs_names = List.map slug [ Wfs.name; "NOVA"; "ext4-DAX" ] in
  let vfs =
    List.concat_map
      (fun fs ->
        List.concat_map
          (fun op ->
            let s = sp (Printf.sprintf "vfs.%s.%s" fs op) in
            [
              (Printf.sprintf "vfs.%s.%s.host_s" fs op, s.incl);
              (Printf.sprintf "vfs.%s.%s.count" fs op, float_of_int s.calls);
            ])
          vfs_ops)
      fs_names
  in
  let kv =
    List.concat_map
      (fun op ->
        let name = "workloads.kv." ^ op in
        [ host name; (name ^ ".count", float_of_int (sp name).calls) ])
      [ "read"; "update"; "insert"; "scan" ]
  in
  let sim_op =
    List.map
      (fun op ->
        ( Printf.sprintf "sim.op.%s.self_ns" op,
          float_of_int (stat_sum ~label:("op", op) snap "op.self_ns") ))
      sim_ops
  in
  let stat name = float_of_int (stat_sum snap name) in
  ( o,
    [
      ("aging.self_s", (sp "aging").self);
      ("aging.files_created", cnt "aging.files_created");
      ("aging.files_deleted", cnt "aging.files_deleted");
      host "pmem.create";
      host "pmem.crash_image";
      ("pmem.crash_image.calls", float_of_int (sp "pmem.crash_image").calls);
      ("pmem.crash_image.bytes", cnt "pmem.crash_image.bytes");
      ("pmem.flushes", stat "pm.flush_lines");
      ("pmem.fences", stat "pm.fences");
      ("pmem.bytes_written", stat "pm.store_bytes" +. stat "pm.nt_store_bytes");
      host "core.format";
      host "core.mount";
      ("sim.recovery_ns", cnt "sim.recovery_ns");
      host "crashcheck.apply";
      host "crashcheck.signature";
      ("crashcheck.crash_points", cnt "crashcheck.crash_points");
      ("crashcheck.states", cnt "crashcheck.states");
      host "workloads.mmap_rw";
      host "workloads.syscall_rw";
      ("memsim.page_faults", cnt "memsim.page_faults");
      ("memsim.winefs.page_faults", cnt "memsim.winefs.page_faults");
      ("memsim.nova.page_faults", cnt "memsim.nova.page_faults");
      ("memsim.tlb_misses", cnt "memsim.tlb_misses");
      ("memsim.huge_mapped_bytes", cnt "memsim.huge_mapped_bytes");
      ("journal.undo.entries", stat "journal.undo.entries");
      ("journal.redo.commits", stat "journal.redo.commits");
      ("alloc.free_aligned_extents", float_of_int (stat_gauge snap "alloc.free_aligned_extents"));
      ("alloc.hole_bytes", float_of_int (stat_gauge snap "alloc.hole_bytes"));
      ("sim.makespan_ns", float_of_int (Stats.Registry.makespan_ns Stats.global));
    ]
    @ vfs @ kv @ sim_op )

let usage () =
  prerr_endline "usage: bench.exe --workload (age|crash|apps) --seed N --setups K --trace (0|1)";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some n when n >= 0 -> n | _ -> usage () in
  let seed = int "seed" and setups = max 1 (int "setups") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let go wl = if trace then traced wl else end_to_end wl ~setups in
  let o, metrics =
    match (get "workload", trace) with
    | "age", _ -> go (age_workload ~seed)
    | "crash", false -> go crash_workload
    | "crash", true -> go crash_replay
    | "apps", _ -> go (apps_workload ~seed)
    | _ -> usage ()
  in
  let gc = Gc.quick_stat () in
  let metrics =
    metrics
    @ [
        ("measured_s", o.measured_s);
        ("units", o.units);
        ("host.minor_mwords", gc.minor_words /. 1e6);
        ("host.major_collections", float_of_int gc.major_collections);
      ]
  in
  let num v = Json.Float v in
  print_endline
    (Json.to_string ~indent:false
       (Json.Obj
          [
            ("digest", Json.String o.digest);
            ("attempted", Json.Int !attempted);
            ("failed", Json.Int !failed);
            ("failures", Json.List (List.rev_map (fun s -> Json.String s) !failures));
            ("setups_s", Json.List (List.map num o.setups_s));
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
          ]))
