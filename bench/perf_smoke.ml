(* @perf-smoke: operation-count budgets for the flat substrate, the
   paged device and the memory simulator's access path.

   Wall-clock assertions flake under CI load, so the perf regressions
   this guards are expressed as deterministic operation counts instead:
   hash-probe work per table operation, pending-entries visited per
   fence, major-heap words per crash image and campaign device, and
   minor-heap words per mapped read.  A regression that reintroduces
   O(all-pending) fence sweeps, degenerate probe chains, whole-device
   copies or per-access allocation in Vmem fails these budgets on any
   machine, loaded or not. *)

open Repro_util
module Device = Repro_pmem.Device

let failures = ref 0

let budget name ~actual ~limit =
  if actual > limit then begin
    Printf.printf "FAIL %-32s %d > budget %d\n" name actual limit;
    incr failures
  end
  else Printf.printf "ok   %-32s %d <= %d\n" name actual limit

let table_probe_budget () =
  (* 10k inserts + 10k hits + 10k misses on a well-spread key set: the
     3/4 load-factor cap keeps expected probes per operation small; 4x
     is far above healthy linear probing and far below a degenerate
     chain. *)
  let n = 10_000 in
  let t = Flat_table.create ~capacity:16 ~dummy:0 () in
  for i = 0 to n - 1 do
    Flat_table.set t (i * 2) i
  done;
  for i = 0 to n - 1 do
    ignore (Flat_table.get t (i * 2) ~default:(-1));
    ignore (Flat_table.mem t ((i * 2) + 1))
  done;
  budget "flat_table probes / 30k ops" ~actual:(Flat_table.probe_steps t) ~limit:(4 * 3 * n)

let table_tombstone_budget () =
  (* Delete-heavy churn in a fixed key range: tombstone rehashing must
     keep probe chains short instead of letting them creep toward a full
     scan per lookup. *)
  let t = Flat_table.create ~capacity:16 ~dummy:0 () in
  let range = 512 in
  for i = 0 to range - 1 do
    Flat_table.set t i i
  done;
  let p0 = Flat_table.probe_steps t in
  let rounds = 200 in
  for r = 1 to rounds do
    for i = 0 to range - 1 do
      Flat_table.remove t i;
      Flat_table.set t i (i + r)
    done
  done;
  let per_op = (Flat_table.probe_steps t - p0) / (rounds * range * 2) in
  budget "flat_table churn probes / op" ~actual:per_op ~limit:6

let fence_sweep_budget () =
  (* 10k dirty lines, 100 flushed: the fence may visit only what was
     flushed (+ small constant), never the whole pending set. *)
  let dev = Device.create ~cost:Device.Cost.free ~size:(4 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  Device.set_tracking dev true;
  let cl = Units.cacheline in
  let dirty = 10_000 and flushed = 100 in
  for i = 0 to dirty - 1 do
    Device.write_string dev cpu ~off:(i * cl) "d"
  done;
  Device.flush dev cpu ~off:0 ~len:(flushed * cl);
  let v0 = Device.fence_sweep_visits dev in
  Device.fence dev cpu;
  budget "fence sweep visits (100 flushed)" ~actual:(Device.fence_sweep_visits dev - v0)
    ~limit:flushed;
  (* Ten no-progress fences over the still-pending 9.9k lines: a sweep
     proportional to pending would show up as ~99k visits here. *)
  let v1 = Device.fence_sweep_visits dev in
  for _ = 1 to 10 do
    Device.fence dev cpu
  done;
  budget "fence sweep visits (10 empty fences)" ~actual:(Device.fence_sweep_visits dev - v1)
    ~limit:0

(* Major-heap words [f] allocates, promotions included.  Read after a
   minor collection: the runtime folds a domain's allocation counts into
   its statistics lazily. *)
let major_words f =
  let read () =
    Gc.minor ();
    let _, _, major = Gc.counters () in
    major
  in
  let w0 = read () in
  f ();
  int_of_float (read () -. w0)

let device_copy_budget () =
  (* A crash image with a few pending lines and a fresh campaign device
     share pages with their source: both together must allocate far less
     than the 48 MiB a whole-device copy costs. *)
  let size = 48 * Units.mib in
  let dev = Device.create ~cost:Device.Cost.free ~size () in
  let cpu = Cpu.make ~id:0 () in
  Device.set_tracking dev true;
  List.iter
    (fun off -> Device.write_string dev cpu ~off "pending")
    [ 0; 4096; 3 * Units.mib; size - 64 ];
  ignore (Repro_crashcheck.Campaign.device () (* the blank template, once *));
  let words =
    major_words (fun () ->
        ignore (Device.crash_image dev ~persisted:(fun line -> line mod 2 = 0));
        ignore (Repro_crashcheck.Campaign.device ()))
  in
  budget "major words: crash image + device" ~actual:words ~limit:(size / 8 / 16)

let vmem_read_budget () =
  (* 10k reads of a 1 KiB record (plus a 16-byte header, so records
     straddle 4 KiB pages) through a pre-faulted base-page mapping: the
     access path must not allocate per access or per cache line.  The
     smallest heap block is two words, so a budget of one word per read
     fails on any per-read allocation. *)
  let module Vmem = Repro_memsim.Vmem in
  let dev = Device.create ~cost:Device.Cost.free ~size:(16 * Units.mib) () in
  let cpu = Cpu.make ~id:0 () in
  let vm = Vmem.create dev in
  let len = 8 * Units.mib in
  let backing _cpu ~file_off ~huge_ok:_ =
    Vmem.Base (Units.round_down file_off Units.base_page)
  in
  let r = Vmem.mmap vm ~len ~backing () in
  Vmem.prefault vm cpu r;
  let rec_bytes = 1040 and reads = 10_000 in
  let slots = len / rec_bytes in
  let w0 = Gc.minor_words () in
  for i = 0 to reads - 1 do
    Vmem.read vm cpu r ~off:((i * 7919 mod slots) * rec_bytes) ~len:rec_bytes
  done;
  let words = int_of_float (Gc.minor_words () -. w0) in
  budget "minor words: 10k 1 KiB Vmem.reads" ~actual:words ~limit:reads

let () =
  table_probe_budget ();
  table_tombstone_budget ();
  fence_sweep_budget ();
  device_copy_budget ();
  vmem_read_budget ();
  if !failures > 0 then begin
    Printf.printf "%d perf budget(s) exceeded\n" !failures;
    exit 1
  end
