open Repro_util
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Fs = Winefs.Fs

type result = {
  workloads_run : int;
  crash_points : int;
  states_checked : int;
  failures : (string * string) list;
}

let signature_of h cpu = Campaign.signature h cpu

(* Enumerate persisted-subset predicates over [lines]: all of them up to
   6 lines, else corner cases plus 24 random samples. *)
let subsets rng lines =
  let n = List.length lines in
  let arr = Array.of_list lines in
  if n = 0 then [ (fun _ -> false) ]
  else if n <= 6 then
    List.init (1 lsl n) (fun mask line ->
        let rec idx i = if arr.(i) = line then i else idx (i + 1) in
        match idx 0 with
        | i -> mask land (1 lsl i) <> 0
        | exception Invalid_argument _ -> false)
  else begin
    let fixed =
      [ (fun _ -> false); (fun _ -> true) ]
      @ List.init (min n 8) (fun i line -> line <> arr.(i)) (* one line lost *)
      @ List.init (min n 8) (fun i line -> line = arr.(i)) (* only one line survives *)
    in
    let random =
      List.init 24 (fun _ ->
          let keep = Hashtbl.create 8 in
          Array.iter (fun l -> if Rng.bool rng then Hashtbl.replace keep l ()) arr;
          fun line -> Hashtbl.mem keep line)
    in
    fixed @ random
  end

let run ?(mode = Types.Strict) ?(workloads = Ace.all) () =
  let with_content = mode = Types.Strict in
  let rng = Rng.create 0xC4A54 in
  let cpu = Cpu.make ~id:0 () in
  let crash_points = ref 0 and states = ref 0 in
  let failures = ref [] in
  let run_workload (w : Ace.workload) =
    let expected = Campaign.expected ~with_content w cpu in
    let fail fmt = Printf.ksprintf (fun d -> failures := (w.w_name, d) :: !failures) fmt in
    (* One crash image alive at a time, each checked at the crash moment. *)
    Campaign.explore ~fences:max_int w cpu (fun ~fence ~op dev ->
        incr crash_points;
        List.iter
          (fun persisted ->
            incr states;
            let img = Device.crash_image dev ~persisted in
            match Fs.mount img Campaign.cfg with
            | exception e -> fail "fence %d: recovery failed: %s" fence (Printexc.to_string e)
            | fs2 -> (
                match Campaign.signature ~with_content (Campaign.handle fs2) cpu with
                | s when s = expected.(op) || s = expected.(op + 1) -> ()
                | s ->
                    fail "fence %d: recovered state matches neither side of op %d:\n%s" fence op
                      s
                | exception e ->
                    fail "fence %d: post-recovery walk failed: %s" fence (Printexc.to_string e)))
          (subsets rng (Device.pending_lines dev)))
  in
  List.iter run_workload workloads;
  {
    workloads_run = List.length workloads;
    crash_points = !crash_points;
    states_checked = !states;
    failures = List.rev !failures;
  }

let recovery_time ~files ~file_bytes =
  let size = max (64 * Units.mib) (files * file_bytes * 2) in
  let dev = Device.create ~size () in
  let cfg = Types.config ~cpus:4 ~inodes_per_cpu:(max 256 (2 * files / 4)) () in
  let fs = Fs.format dev cfg in
  let cpu = Cpu.make ~id:0 () in
  let payload = String.make file_bytes 'r' in
  for i = 1 to files do
    let fd = Fs.create fs cpu (Printf.sprintf "/f%d" i) in
    ignore (Fs.pwrite fs cpu fd ~off:0 ~src:payload);
    Fs.close fs cpu fd
  done;
  (* Crash: no unmount.  Mount performs journal recovery plus the full
     inode-table scan and allocator rebuild. *)
  let fs2 = Fs.mount dev cfg in
  (Fs.recovery_ns fs2, files)
