(* PM device: data access, cost accounting, persistence/crash semantics. *)

open Repro_util
module Device = Repro_pmem.Device

let cpu () = Cpu.make ~id:0 ()

(* The device's page size. *)
let page = 65536

let test_rw () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:100 "hello";
  Alcotest.(check string) "read back" "hello" (Device.read_string d c ~off:100 ~len:5);
  Device.write_u64 d c ~off:512 42L;
  Alcotest.(check int64) "u64" 42L (Device.read_u64 d c ~off:512);
  Device.memset d c ~off:0 ~len:64 'z';
  Alcotest.(check string) "memset" "zzzz" (Device.read_string d c ~off:60 ~len:4);
  Device.copy_within d c ~src:100 ~dst:1000 ~len:5;
  Alcotest.(check string) "copy_within" "hello" (Device.read_string d c ~off:1000 ~len:5)

let test_bounds () =
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  Alcotest.(check bool) "out of bounds rejected" true
    (match Device.write_string d c ~off:4090 "toolong" with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_cost_charged () =
  let d = Device.create ~size:(1 * Units.mib) () in
  let c = cpu () in
  let t0 = Cpu.now c in
  Device.write_string d c ~off:0 (String.make 4096 'a');
  let t1 = Cpu.now c in
  Alcotest.(check bool) "write charges time" true (t1 > t0);
  ignore (Device.read_string d c ~off:0 ~len:4096);
  Alcotest.(check bool) "read charges time" true (Cpu.now c > t1);
  Alcotest.(check int) "bytes written counted" 4096
    (Counters.get (Device.counters d) "pm.bytes_written")

let test_crash_unflushed_lost () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.write_string d c ~off:0 "durable";
  Device.persist d c ~off:0 ~len:7;
  Device.set_tracking d true;
  Device.write_string d c ~off:1024 "volatile";
  (* No flush/fence: in the none-persisted crash image the write is gone. *)
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "durable survives" "durable" (Device.read_string img c ~off:0 ~len:7);
  Alcotest.(check string) "unflushed lost" (String.make 8 '\000')
    (Device.read_string img c ~off:1024 ~len:8);
  (* All-persisted image keeps it. *)
  let img2 = Device.crash_image d ~persisted:(fun _ -> true) in
  Alcotest.(check string) "kept when persisted" "volatile"
    (Device.read_string img2 c ~off:1024 ~len:8)

let test_fence_makes_durable () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  Device.write_string d c ~off:0 "flushed";
  Device.flush d c ~off:0 ~len:7;
  Device.fence d c;
  Alcotest.(check (list int)) "nothing pending after flush+fence" [] (Device.pending_lines d);
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "flushed+fenced survives any crash" "flushed"
    (Device.read_string img c ~off:0 ~len:7)

let test_nt_stores () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  Device.write_string_nt d c ~off:0 "ntdata";
  (* NT stores become durable at the fence without explicit flush. *)
  Device.fence d c;
  let img = Device.crash_image d ~persisted:(fun _ -> false) in
  Alcotest.(check string) "nt store durable after fence" "ntdata"
    (Device.read_string img c ~off:0 ~len:6)

let test_partial_crash_subsets () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  Device.set_tracking d true;
  (* Two stores in different cache lines. *)
  Device.write_string d c ~off:0 "AAAA";
  Device.write_string d c ~off:256 "BBBB";
  let lines = Device.pending_lines d in
  Alcotest.(check int) "two pending lines" 2 (List.length lines);
  let a_line = 0 and b_line = 4 in
  let img = Device.crash_image d ~persisted:(fun l -> l = a_line) in
  Alcotest.(check string) "A survived" "AAAA" (Device.read_string img c ~off:0 ~len:4);
  Alcotest.(check string) "B lost" "\000\000\000\000" (Device.read_string img c ~off:256 ~len:4);
  ignore b_line

let test_fence_hook () =
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  let fired = ref [] in
  Device.set_fence_hook d (Some (fun n -> fired := n :: !fired));
  Device.fence d c;
  Device.fence d c;
  Device.set_fence_hook d None;
  Device.fence d c;
  Alcotest.(check (list int)) "hook saw fences 1 and 2" [ 2; 1 ] !fired

let test_numa_cost () =
  let d = Device.create ~numa_nodes:2 ~size:(4 * Units.mib) () in
  let local = Cpu.make ~id:0 ~node:0 () in
  let remote = Cpu.make ~id:1 ~node:1 () in
  (* Writing to node-0-owned space costs more from node 1. *)
  let t0 = Cpu.now local in
  Device.write_string d local ~off:0 (String.make 4096 'l');
  let local_cost = Cpu.now local - t0 in
  let t0 = Cpu.now remote in
  Device.write_string d remote ~off:0 (String.make 4096 'r');
  let remote_cost = Cpu.now remote - t0 in
  Alcotest.(check bool) "remote write dearer" true (remote_cost > local_cost);
  Alcotest.(check int) "node of offset" 1 (Device.node_of_offset d (3 * Units.mib))

let test_save_load () =
  (* Several pages plus a partial one, with data on both sides of every
     page boundary. *)
  let path = Filename.temp_file "winefs" ".pm" in
  let size = (2 * page) + 192 in
  let d = Device.create ~cost:Device.Cost.free ~size () in
  let c = cpu () in
  List.iter
    (fun off -> Device.write_string d c ~off (Printf.sprintf "<%08d>" off))
    [ 0; page - 5; (2 * page) - 3; size - 10 ];
  let snap = Device.snapshot d in
  Device.save_file snap path;
  let d2 = Device.load_file ~cost:Device.Cost.free path in
  Alcotest.(check int) "file holds the whole device" size
    (In_channel.with_open_bin path In_channel.length |> Int64.to_int);
  Alcotest.(check int) "same size" size (Device.size d2);
  Alcotest.(check string) "same contents"
    (Device.read_string d c ~off:0 ~len:size)
    (Device.read_string d2 c ~off:0 ~len:size);
  Sys.remove path

let test_multi_hook () =
  (* Several observers on one device: all must see every event, in
     installation order; removing one leaves the others untouched. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  let a = ref 0 and b = ref 0 and order = ref [] in
  let ha = Device.add_event_hook d (fun _ _ _ -> incr a; order := `A :: !order) in
  let hb = Device.add_event_hook d (fun _ _ _ -> incr b; order := `B :: !order) in
  Device.write_u64 d c ~off:0 7L;
  Device.persist d c ~off:0 ~len:8;
  Alcotest.(check int) "both hooks saw every event" !a !b;
  Alcotest.(check bool) "events flowed" true (!a = 3) (* store, flush, fence *);
  (match !order with
  | `B :: `A :: _ -> ()
  | _ -> Alcotest.fail "hooks must run in installation order");
  Device.remove_event_hook d ha;
  Device.write_u64 d c ~off:64 8L;
  Alcotest.(check int) "removed hook silent" 3 !a;
  Alcotest.(check int) "remaining hook still fires" 4 !b;
  Device.remove_event_hook d ha (* unknown/stale ids are ignored *);
  Device.remove_event_hook d hb;
  Device.write_u64 d c ~off:128 9L;
  Alcotest.(check int) "all hooks removed" 4 !b

let test_hook_removal_during_dispatch () =
  (* Regression: dispatch iterates a snapshot of the hook list, so a hook
     that removes observers mid-event — itself or a sibling — must not
     cause any hook installed at emit time to be skipped or run twice on
     that event. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  let a = ref 0 and b = ref 0 and z = ref 0 in
  let ids = ref [] in
  let ha =
    Device.add_event_hook d (fun _ _ _ ->
        incr a;
        (* Remove every installed hook, including this one, mid-dispatch. *)
        List.iter (Device.remove_event_hook d) !ids)
  in
  let hb = Device.add_event_hook d (fun _ _ _ -> incr b) in
  let hz = Device.add_event_hook d (fun _ _ _ -> incr z) in
  ids := [ ha; hb; hz ];
  Device.write_u64 d c ~off:0 1L;
  Alcotest.(check int) "self-removing hook fired once" 1 !a;
  Alcotest.(check int) "sibling after remover still fired" 1 !b;
  Alcotest.(check int) "last sibling still fired" 1 !z;
  Device.write_u64 d c ~off:64 2L;
  Alcotest.(check (list int)) "all hooks gone on the next event" [ 1; 1; 1 ] [ !a; !b; !z ]

let test_torn_word_crash_subsets () =
  (* Torn-word x crash_image composition: with [n] pending lines the
     exhaustive subset enumeration yields exactly [2^n] images, and every
     image is exactly predicted by the store log — persisted lines show
     their new bytes, dropped lines their pre-store bytes, and the
     registered torn word shows its pre-store bytes in {e every} image
     (the tear fires whether or not the rest of its line persisted). *)
  let d = Device.create ~cost:Device.Cost.free ~size:8192 () in
  let c = cpu () in
  let lines = [| 0; 1; 2 |] in
  let old_of l = String.make 64 (Char.chr (Char.code 'a' + l)) in
  let new_of l = String.make 64 (Char.chr (Char.code 'A' + l)) in
  Array.iter
    (fun l ->
      Device.write_string d c ~off:(l * 64) (old_of l);
      Device.persist d c ~off:(l * 64) ~len:64)
    lines;
  Device.set_tracking d true;
  Array.iter (fun l -> Device.write_string d c ~off:(l * 64) (new_of l)) lines;
  Alcotest.(check int) "three pending lines" 3 (List.length (Device.pending_lines d));
  (* Tear the second 8-byte word of line 1. *)
  let torn_off = 64 + 8 in
  Device.inject d (Device.Torn_word { off = torn_off });
  let n = Array.length lines in
  let images = ref 0 in
  for mask = 0 to (1 lsl n) - 1 do
    let persisted l = mask land (1 lsl l) <> 0 in
    let img = Device.crash_image d ~persisted in
    incr images;
    Array.iter
      (fun l ->
        let got = Device.read_string img c ~off:(l * 64) ~len:64 in
        let expect =
          if not (persisted l) then old_of l
          else if l = 1 then
            (* Persisted line with the tear: new bytes except the torn
               word, which reverted to its pre-store contents. *)
            String.concat "" [ String.make 8 'B'; String.make 8 'b'; String.make 48 'B' ]
          else new_of l
        in
        Alcotest.(check string)
          (Printf.sprintf "mask %d line %d predicted by store log" mask l)
          expect got)
      lines
  done;
  Alcotest.(check int) "enumeration terminates at 2^n images" 8 !images;
  (* The source device is untouched by image materialisation: the stores
     are still pending and the tear still registered. *)
  Alcotest.(check int) "source still has three pending lines" 3
    (List.length (Device.pending_lines d))

let test_poison_and_repair () =
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let c = cpu () in
  Device.write_string d c ~off:128 "healthy!";
  Device.inject d (Device.Poison_line { off = 130 });
  Alcotest.(check (list int)) "line reported poisoned" [ 2 ] (Device.poisoned_lines d);
  (match Device.read_string d c ~off:128 ~len:8 with
  | _ -> Alcotest.fail "load of a poisoned line must raise"
  | exception Device.Media_error { off } -> Alcotest.(check int) "MCE at line start" 128 off);
  (* peek is no safer than read. *)
  (match Device.peek d ~off:130 ~len:1 ~dst:(Bytes.create 1) ~dst_off:0 with
  | _ -> Alcotest.fail "peek of a poisoned line must raise"
  | exception Device.Media_error _ -> ());
  (* A partial store leaves the line poisoned; a full-line store clears. *)
  Device.write_string d c ~off:128 "partial";
  Alcotest.(check (list int)) "partial store keeps poison" [ 2 ] (Device.poisoned_lines d);
  Device.write_string d c ~off:128 (String.make 64 'R');
  Alcotest.(check (list int)) "full-line store clears poison" [] (Device.poisoned_lines d);
  Alcotest.(check string) "line readable again" "RRRR" (Device.read_string d c ~off:128 ~len:4)

let test_hook_cpu_tagging () =
  (* Data events carry the accessing CPU; protocol annotations carry
     [None]. *)
  let d = Device.create ~cost:Device.Cost.free ~size:4096 () in
  let seen = ref [] in
  let id =
    Device.add_event_hook d (fun cpu _ ev ->
        let tag = match cpu with Some (c : Cpu.t) -> c.id | None -> -1 in
        seen := (tag, ev) :: !seen)
  in
  let c3 = Cpu.make ~id:3 () in
  Device.write_u64 d c3 ~off:0 1L;
  Device.annotate d Device.Recovery_begin;
  Device.remove_event_hook d id;
  (match !seen with
  | [ (-1, Device.Protocol _); (3, Device.Store _) ] -> ()
  | _ -> Alcotest.fail "expected a cpu-tagged store then an untagged protocol event")

(* The paged backing against a flat [Bytes] model.  The device spans
   three full 64 KiB pages and a partial fourth, and offsets cluster
   around page boundaries so that pieces split across pages.  Snapshots
   taken along the way must keep the contents of their moment while both
   sides go on storing. *)
let test_paged_differential () =
  let size = (3 * page) + 4096 in
  let d = Device.create ~cost:Device.Cost.free ~size () in
  let model = Bytes.make size '\000' in
  let c = cpu () in
  let rng = Rng.create 0x9A6ED in
  let contents d =
    let b = Bytes.create size in
    Device.peek d ~off:0 ~len:size ~dst:b ~dst_off:0;
    Bytes.to_string b
  in
  (* An offset near a page boundary (or anywhere), and a length that
     keeps [off, off+len) in range: mostly short, sometimes longer than
     a page. *)
  let pick_off () =
    if Rng.bool rng then Rng.int rng size
    else max 0 (min (size - 1) (((1 + Rng.int rng 3) * page) + Rng.int rng 256 - 128))
  in
  let pick_len off =
    let room = size - off in
    min room (if Rng.int rng 8 = 0 then Rng.int rng (page + 4096) else Rng.int rng 300)
  in
  let fill_random len = Bytes.init len (fun _ -> Char.chr (Rng.int rng 256)) in
  let snaps = ref [] in
  for step = 1 to 2000 do
    let off = pick_off () in
    let len = pick_len off in
    (match Rng.int rng 9 with
    | 0 | 1 ->
        let src = fill_random (len + 3) in
        (if Rng.bool rng then Device.write d c ~off ~src ~src_off:3 ~len
         else Device.write_nt d c ~off ~src ~src_off:3 ~len);
        Bytes.blit src 3 model off len
    | 2 ->
        let s = Bytes.to_string (fill_random len) in
        (if Rng.bool rng then Device.write_string d c ~off s
         else Device.write_string_nt d c ~off s);
        Bytes.blit_string s 0 model off len
    | 3 ->
        let ch = Char.chr (Rng.int rng 256) in
        (if Rng.bool rng then Device.memset d c ~off ~len ch
         else Device.memset_nt d c ~off ~len ch);
        Bytes.fill model off len ch
    | 4 | 5 ->
        (* Overlapping in either direction, or anywhere. *)
        let dst =
          if Rng.bool rng then max 0 (min (size - len) (off + Rng.int rng 512 - 256))
          else Rng.int rng (size - len + 1)
        in
        (if Rng.bool rng then Device.copy_within d c ~src:off ~dst ~len
         else Device.copy_within_nt d c ~src:off ~dst ~len);
        Bytes.blit model off model dst len
    | 6 ->
        let off = if Rng.bool rng then page - 4 + (Rng.int rng 3 * page) else min off (size - 8) in
        let v = Rng.int64 rng in
        Device.write_u64 d c ~off v;
        Bytes.set_int64_le model off v
    | 7 ->
        let off = if Rng.bool rng then page - 4 else min off (size - 8) in
        Alcotest.(check int64)
          (Printf.sprintf "step %d read_u64 @%d" step off)
          (Bytes.get_int64_le model off) (Device.read_u64 d c ~off)
    | _ ->
        Alcotest.(check string)
          (Printf.sprintf "step %d read_string @%d+%d" step off len)
          (Bytes.sub_string model off len) (Device.read_string d c ~off ~len));
    if step mod 250 = 0 then snaps := (Device.snapshot d, Bytes.to_string model) :: !snaps
  done;
  Alcotest.(check bool) "whole device equals the model" true (contents d = Bytes.to_string model);
  List.iter
    (fun (snap, frozen) ->
      Alcotest.(check bool) "snapshot keeps the contents of its moment" true
        (contents snap = frozen))
    !snaps

let test_snapshot_isolation () =
  let d = Device.create ~cost:Device.Cost.free ~size:(2 * page) () in
  let c = cpu () in
  let read dev off = Device.read_string dev c ~off ~len:4 in
  Device.write_string d c ~off:(page - 2) "AAAA";
  let snap = Device.snapshot d in
  Device.write_string d c ~off:(page - 2) "BBBB";
  Alcotest.(check string) "source store invisible in the snapshot" "AAAA" (read snap (page - 2));
  Device.write_string snap c ~off:100 "CCCC";
  Alcotest.(check string) "snapshot store invisible in the source" "\000\000\000\000" (read d 100);
  Alcotest.(check string) "source keeps its own store" "BBBB" (read d (page - 2));
  (* The same both ways for a crash image of a tracked device. *)
  Device.set_tracking d true;
  Device.write_string d c ~off:200 "DDDD";
  let img = Device.crash_image d ~persisted:(fun _ -> true) in
  Device.write_string d c ~off:200 "EEEE";
  Alcotest.(check string) "later source store invisible in the image" "DDDD" (read img 200);
  Device.write_string img c ~off:(page + 8) "FFFF";
  Alcotest.(check string) "image store invisible in the source" "\000\000\000\000"
    (read d (page + 8));
  Alcotest.(check string) "snapshot untouched by the image either" "\000\000\000\000"
    (read snap (page + 8));
  (* Empty accesses at the very end of a page-aligned device name a page
     that does not exist. *)
  Device.write_string d c ~off:(2 * page) "";
  Device.memset d c ~off:(2 * page) ~len:0 'x';
  Alcotest.(check string) "empty read at the end" "" (Device.read_string d c ~off:(2 * page) ~len:0)

let test_snapshot_bit_flip () =
  (* A campaign's blank template is shared by every device it hands out;
     a bit flip planted in one of them must stay there. *)
  let blank = Device.create ~cost:Device.Cost.free ~size:(2 * page) () in
  let c = cpu () in
  let a = Device.snapshot blank and b = Device.snapshot blank in
  Device.inject a (Device.Bit_flip { off = page + 5; bit = 3 });
  Alcotest.(check string) "flipped in the snapshot" "\008" (Device.read_string a c ~off:(page + 5) ~len:1);
  Alcotest.(check string) "template untouched" "\000"
    (Device.read_string blank c ~off:(page + 5) ~len:1);
  Alcotest.(check string) "sibling snapshot untouched" "\000"
    (Device.read_string b c ~off:(page + 5) ~len:1)

let suite =
  [
    Alcotest.test_case "read/write" `Quick test_rw;
    Alcotest.test_case "multi hook fan-out" `Quick test_multi_hook;
    Alcotest.test_case "hook removal during dispatch" `Quick test_hook_removal_during_dispatch;
    Alcotest.test_case "torn word x crash subsets" `Quick test_torn_word_crash_subsets;
    Alcotest.test_case "poison line and repair" `Quick test_poison_and_repair;
    Alcotest.test_case "hook cpu tagging" `Quick test_hook_cpu_tagging;
    Alcotest.test_case "bounds" `Quick test_bounds;
    Alcotest.test_case "cost accounting" `Quick test_cost_charged;
    Alcotest.test_case "crash: unflushed lost" `Quick test_crash_unflushed_lost;
    Alcotest.test_case "crash: fence makes durable" `Quick test_fence_makes_durable;
    Alcotest.test_case "crash: nt stores" `Quick test_nt_stores;
    Alcotest.test_case "crash: partial subsets" `Quick test_partial_crash_subsets;
    Alcotest.test_case "fence hook" `Quick test_fence_hook;
    Alcotest.test_case "numa cost" `Quick test_numa_cost;
    Alcotest.test_case "image save/load" `Quick test_save_load;
    Alcotest.test_case "paged: differential vs flat model" `Quick test_paged_differential;
    Alcotest.test_case "paged: snapshot isolation" `Quick test_snapshot_isolation;
    Alcotest.test_case "paged: bit flip on a snapshot" `Quick test_snapshot_bit_flip;
  ]
