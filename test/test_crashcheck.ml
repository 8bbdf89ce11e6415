(* Crash-consistency machinery: the checker must pass on correct WineFS,
   catch injected corruption, and the recovery-time probe must scale with
   file count. *)

module Checker = Repro_crashcheck.Checker
module Ace = Repro_crashcheck.Ace
module Campaign = Repro_crashcheck.Campaign
module Device = Repro_pmem.Device

let pick names =
  List.filter (fun (w : Ace.workload) -> List.mem w.w_name names) Ace.all

let test_seq1_sample () =
  let r =
    Checker.run
      ~workloads:(pick [ "seq1-create"; "seq1-rename-replace"; "seq1-unlink"; "seq1-append" ])
      ()
  in
  Alcotest.(check int) "workloads" 4 r.workloads_run;
  Alcotest.(check bool) "explored crash points" true (r.crash_points > 10);
  Alcotest.(check bool) "explored states" true (r.states_checked > r.crash_points);
  Alcotest.(check (list (pair string string))) "no inconsistencies" [] r.failures

let test_seq2_sample () =
  let r = Checker.run ~workloads:(pick [ "seq2-create-write"; "seq2-rename-rename" ]) () in
  Alcotest.(check (list (pair string string))) "no inconsistencies" [] r.failures

let test_seq3_sample () =
  let r = Checker.run ~workloads:(pick [ "seq3-replace-via-tmp" ]) () in
  Alcotest.(check (list (pair string string))) "no inconsistencies" [] r.failures

(* The oracle itself must distinguish different trees and contents. *)
let test_signature_sensitivity () =
  let module Fs = Winefs.Fs in
  let c = Repro_util.Cpu.make ~id:0 () in
  let mk () = snd (Campaign.fresh ()) in
  let h = Campaign.handle in
  let fs1 = mk () and fs2 = mk () in
  Alcotest.(check string) "empty trees equal"
    (Checker.signature_of (h fs1) c)
    (Checker.signature_of (h fs2) c);
  let fd = Fs.create fs1 c "/x" in
  ignore (Fs.pwrite fs1 c fd ~off:0 ~src:"abc");
  Fs.close fs1 c fd;
  Alcotest.(check bool) "file changes signature" true
    (Checker.signature_of (h fs1) c <> Checker.signature_of (h fs2) c);
  let fd2 = Fs.create fs2 c "/x" in
  ignore (Fs.pwrite fs2 c fd2 ~off:0 ~src:"abd");
  Fs.close fs2 c fd2;
  Alcotest.(check bool) "content changes signature" true
    (Checker.signature_of (h fs1) c <> Checker.signature_of (h fs2) c)

(* Hex digest of a device's whole contents. *)
let contents_digest dev =
  let b = Bytes.create (Device.size dev) in
  Device.peek dev ~off:0 ~len:(Device.size dev) ~dst:b ~dst_off:0;
  Digest.to_hex (Digest.bytes b)

(* Every crash image a campaign takes must show the device as the fence
   found it.  The reference is taken by hand inside a fence hook, before
   the hook's exception unwinds through the transaction's abort path,
   which rolls the in-place stores back and fences again.  The rename's
   crash points fall inside its journaled transaction. *)
let test_crash_image_taken_at_fence () =
  let cpu = Repro_util.Cpu.make ~id:0 () in
  let w = List.hd (pick [ "seq1-rename-replace" ]) in
  let all_persisted dev = contents_digest (Device.crash_image dev ~persisted:(fun _ -> true)) in
  let seen = ref [] in
  Campaign.explore ~fences:max_int w cpu (fun ~fence ~op:_ dev -> seen := (fence, all_persisted dev) :: !seen);
  let seen = List.rev !seen in
  let at_fence fence =
    let dev, fs = Campaign.fresh () in
    List.iter (Ace.apply (Campaign.handle fs) cpu) w.setup;
    Device.set_tracking dev true;
    Device.reset_fence_seq dev;
    let digest = ref "" in
    Device.set_fence_hook dev
      (Some
         (fun seq ->
           if seq = fence then begin
             digest := all_persisted dev;
             raise Exit
           end));
    (try List.iter (Ace.apply (Campaign.handle fs) cpu) w.test with Exit -> ());
    (fence, !digest)
  in
  Alcotest.(check bool) "several crash points" true (List.length seen > 1);
  Alcotest.(check (list (pair int string))) "image at each fence"
    (List.map (fun (fence, _) -> at_fence fence) seen)
    seen

let test_recovery_time_scales () =
  let t1, _ = Checker.recovery_time ~files:100 ~file_bytes:8192 in
  let t2, _ = Checker.recovery_time ~files:1000 ~file_bytes:8192 in
  Alcotest.(check bool) "recovery grows with files" true (t2 > t1);
  (* §5.2: recovery depends on file count, not data volume. *)
  let t3, _ = Checker.recovery_time ~files:100 ~file_bytes:65536 in
  Alcotest.(check bool) "8x data is far cheaper than 10x files" true (t3 < t2)

let suite =
  [
    Alcotest.test_case "seq1 sample consistent" `Quick test_seq1_sample;
    Alcotest.test_case "seq2 sample consistent" `Quick test_seq2_sample;
    Alcotest.test_case "seq3 sample consistent" `Quick test_seq3_sample;
    Alcotest.test_case "signature sensitivity" `Quick test_signature_sensitivity;
    Alcotest.test_case "crash image taken at the fence" `Quick test_crash_image_taken_at_fence;
    Alcotest.test_case "recovery time scales with files" `Quick test_recovery_time_scales;
  ]
