open Repro_util
module Types = Repro_vfs.Types
module Fs_intf = Repro_vfs.Fs_intf
module Fs = Winefs.Fs
module Micro = Repro_workloads.Micro
module Sanitizer = Repro_sanitizer.Sanitizer

type report = { name : string; diags : Sanitizer.diag list }

let errors r =
  List.length (List.filter (fun d -> d.Sanitizer.severity = Sanitizer.Error) r.diags)

let total_errors rs = List.fold_left (fun acc r -> acc + errors r) 0 rs

let run_custom ?strict ?rules ?(mode = Types.Strict) ~name body =
  let dev = Campaign.device () in
  let cfg = { Campaign.cfg with mode } in
  let cpu = Cpu.make ~id:0 () in
  let (), diags =
    Sanitizer.with_device ?strict ?rules dev (fun _t ->
        let fs = Fs.format dev cfg in
        body (Fs_intf.Handle ((module Fs), fs)) cpu;
        Fs.unmount fs cpu;
        (* Remount: every byte recovery reads must be durable (R2). *)
        let fs' = Fs.mount dev cfg in
        Fs.unmount fs' cpu)
  in
  { name; diags }

let run_ace ?strict ?rules ?mode workloads =
  List.map
    (fun (w : Ace.workload) ->
      run_custom ?strict ?rules ?mode ~name:w.w_name (fun h cpu ->
          List.iter (Ace.apply h cpu) (w.setup @ w.test)))
    workloads

let run_micro ?strict ?rules () =
  let mib = Units.mib in
  let syscall mode name =
    run_custom ?strict ?rules ~name (fun h _cpu ->
        ignore
          (Micro.syscall_rw h ~fsync_every:4 ~path:"/m" ~file_bytes:(4 * mib)
             ~io_bytes:(2 * mib) ~chunk:(16 * Units.kib) ~mode ()))
  in
  let mmap mode name =
    run_custom ?strict ?rules ~name (fun h _cpu ->
        ignore
          (Micro.mmap_rw h ~path:"/mm" ~file_bytes:(4 * mib) ~io_bytes:(2 * mib)
             ~chunk:(64 * Units.kib) ~mode ()))
  in
  [
    syscall `Seq_write "micro:syscall-seq-write";
    syscall `Rand_write "micro:syscall-rand-write";
    mmap `Seq_write "micro:mmap-seq-write";
    mmap `Rand_write "micro:mmap-rand-write";
    run_custom ?strict ?rules ~name:"micro:mmap-2mb-file" (fun h _cpu ->
        ignore (Micro.mmap_write_2mb_file h ~path:"/huge" ~huge_ok:true));
  ]
