(* Profiling driver: where does aging wall time go?

   An instrumented copy of Geriatrix.age with per-operation-class wall
   timers plus a 1kHz stack sampler.  Usage:

     profile_aging.exe SCALE [ext4|winefs|nova|strata|splitfs|pmfs|both]
     profile_aging.exe SCALE frag   # allocator fragmentation probe

   The two views are complementary: the sampler attributes time to
   frames but only fires at allocation safepoints (tight non-allocating
   loops — Array.blit, Bytes.blit — are invisible to it), while the
   per-class timers catch exactly that.  The chunked extent-run fix in
   lib/rbtree came from the timers showing unlink/pwrite growing 3.3x
   and 2.6x between scales 2 and 4 against 2.07x operation growth,
   with nothing new in the sampler profile. *)
open Repro_util
open Repro_vfs
module Registry = Repro_baselines.Registry
module G = Repro_aging.Geriatrix
module Device = Repro_pmem.Device

let now = Unix.gettimeofday

let scale = try int_of_string Sys.argv.(1) with _ -> 1

(* 1kHz CPU-time stack sampler: handlers fire at allocation safepoints,
   so tight non-allocating loops under-sample, but the shape is right. *)
let samples : Printexc.raw_backtrace list ref = ref []

let start_sampler () =
  Sys.set_signal Sys.sigvtalrm
    (Sys.Signal_handle (fun _ -> samples := Printexc.get_callstack 25 :: !samples));
  ignore
    (Unix.setitimer Unix.ITIMER_VIRTUAL
       { Unix.it_interval = 0.001; it_value = 0.001 })

let stop_sampler () =
  ignore
    (Unix.setitimer Unix.ITIMER_VIRTUAL { Unix.it_interval = 0.; it_value = 0. });
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun bt ->
      let s = Printexc.raw_backtrace_to_string bt in
      let lines = String.split_on_char '\n' s in
      (* Count each distinct frame once per sample (inclusive time). *)
      let seen = Hashtbl.create 8 in
      List.iter
        (fun l ->
          let l = String.trim l in
          if String.length l > 0 && not (Hashtbl.mem seen l) then begin
            Hashtbl.replace seen l ();
            Hashtbl.replace tbl l (1 + try Hashtbl.find tbl l with Not_found -> 0)
          end)
        lines)
    !samples;
  let total = List.length !samples in
  let rows = Hashtbl.fold (fun k v acc -> (v, k) :: acc) tbl [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  Printf.printf "--- %d samples; top inclusive frames ---\n" total;
  List.iteri
    (fun i (v, k) ->
      if i < 25 then Printf.printf "%5.1f%% %s\n" (100. *. float v /. float total) k)
    rows;
  (* Self time: the innermost frame below the signal machinery. *)
  let self = Hashtbl.create 256 in
  List.iter
    (fun bt ->
      let s = Printexc.raw_backtrace_to_string bt in
      let lines = String.split_on_char '\n' s in
      let lines = List.filter (fun l -> String.length (String.trim l) > 0) lines in
      match lines with
      | _sig :: top :: _ ->
          let top = String.trim top in
          Hashtbl.replace self top (1 + try Hashtbl.find self top with Not_found -> 0)
      | _ -> ())
    !samples;
  let rows = Hashtbl.fold (fun k v acc -> (v, k) :: acc) self [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  Printf.printf "--- top self frames ---\n";
  List.iteri
    (fun i (v, k) ->
      if i < 30 then Printf.printf "%5.1f%% %s\n" (100. *. float v /. float total) k)
    rows;
  samples := []

type live = { mutable paths : string array; mutable n : int }

let live_add l p =
  if l.n >= Array.length l.paths then begin
    let bigger = Array.make (max 64 (2 * Array.length l.paths)) "" in
    Array.blit l.paths 0 bigger 0 l.n;
    l.paths <- bigger
  end;
  l.paths.(l.n) <- p;
  l.n <- l.n + 1

let live_remove_at l i =
  let p = l.paths.(i) in
  l.paths.(i) <- l.paths.(l.n - 1);
  l.n <- l.n - 1;
  p

let t_statfs = ref 0.
let t_create = ref 0.
let t_pwrite = ref 0.
let t_fsync = ref 0.
let t_close = ref 0.
let t_unlink = ref 0.
let n_statfs = ref 0
let n_create = ref 0
let n_pwrite = ref 0
let n_unlink = ref 0

let timed acc n f =
  incr n;
  let t0 = now () in
  let r = f () in
  acc := !acc +. (now () -. t0);
  r

let age (Fs_intf.Handle ((module F), fs)) ~churn_bytes ~target_util =
  let profile = G.agrawal in
  let rng = Rng.create 0xA6E in
  let write_chunk = 16 * Units.mib in
  let cpus = Array.init 8 (fun id -> Cpu.make ~id ()) in
  let op_count = ref 0 in
  let next_cpu () =
    incr op_count;
    cpus.(!op_count mod Array.length cpus)
  in
  let cpu = cpus.(0) in
  let chunk = String.make write_chunk 'g' in
  for d = 0 to profile.G.dirs - 1 do
    let path = Printf.sprintf "/g%d" d in
    if not (F.exists fs cpu path) then F.mkdir fs cpu path
  done;
  let live = { paths = Array.make 1024 ""; n = 0 } in
  let written = ref 0 in
  let next_id = ref 0 in
  let statfs () = timed t_statfs n_statfs (fun () -> F.statfs fs) in
  let capacity = (statfs ()).Types.capacity in
  let delete_random () =
    if live.n > 0 then begin
      let i =
        if live.n >= 8 && Rng.bool rng then live.n - 1 - Rng.int rng (live.n / 8)
        else Rng.int rng live.n
      in
      let path = live_remove_at live i in
      try timed t_unlink n_unlink (fun () -> F.unlink fs (next_cpu ()) path)
      with Types.Error (ENOENT, _) -> ()
    end
  in
  let create_one size =
    let path = Printf.sprintf "/g%d/f%d" (Rng.int rng profile.G.dirs) !next_id in
    incr next_id;
    let cpu = next_cpu () in
    match timed t_create n_create (fun () -> F.create fs cpu path) with
    | exception Types.Error (ENOSPC, _) -> false
    | fd ->
        let ok = ref true in
        let off = ref 0 in
        (try
           while !off < size do
             let n = min write_chunk (size - !off) in
             ignore
               (timed t_pwrite n_pwrite (fun () ->
                    F.pwrite_sub fs cpu fd ~off:!off ~src:chunk ~src_off:0 ~len:n));
             written := !written + n;
             off := !off + n
           done
         with Types.Error (ENOSPC, _) -> ok := false);
        timed t_fsync n_create (fun () -> F.fsync fs cpu fd);
        timed t_close n_create (fun () -> F.close fs cpu fd);
        if !ok then begin
          live_add live path;
          true
        end
        else begin
          (try F.unlink fs cpu path with Types.Error (ENOENT, _) -> ());
          false
        end
  in
  let util () = Types.utilization (statfs ()) in
  let stall = ref 0 in
  while util () < target_util && !stall < 64 do
    let size = Dist.sample profile.G.size_dist rng in
    let size = min size (max Units.base_page (capacity / 8)) in
    if create_one size then stall := 0
    else begin
      incr stall;
      delete_random ()
    end
  done;
  while !written < churn_bytes do
    let size = Dist.sample profile.G.size_dist rng in
    let size = min size (max Units.base_page (capacity / 8)) in
    let guard = ref 0 in
    while
      (util () > target_util
      || float_of_int (statfs ()).Types.free < 1.5 *. float_of_int size)
      && live.n > 0 && !guard < 10_000
    do
      delete_random ();
      incr guard
    done;
    if not (create_one size) then delete_random ()
  done

(* frag mode: age one ext4 instance and report allocator fragmentation,
   to size the O(n) term in the flat extent index. *)
let frag_probe () =
  let device_bytes = 384 * Units.mib * scale in
  let churn_bytes = device_bytes * 48 in
  let dev = Device.create ~size:device_bytes () in
  let stores = ref 0 and store_bytes = ref 0 and loads = ref 0 in
  ignore
    (Device.add_event_hook dev (fun _ _ ev ->
         match ev with
         | Device.Store { len; _ } ->
             incr stores;
             store_bytes := !store_bytes + len
         | Device.Load _ -> incr loads
         | _ -> ()));
  let module E = Repro_baselines.Registry.Of_preset (struct
    let preset = Repro_baselines.Basefs.ext4_dax
  end) in
  let fs = E.format dev (Types.config ~cpus:4 ~inodes_per_cpu:8192 ()) in
  let t0 = now () in
  age (Fs_intf.Handle ((module E), fs)) ~churn_bytes ~target_util:0.75;
  Printf.printf
    "aged in %.2fs; free extents %d, largest %d, free %d; stores %d (avg %db) loads %d\n%!"
    (now () -. t0)
    (Repro_alloc.Pool_alloc.free_extent_count fs.Repro_baselines.Basefs.alloc)
    (Repro_alloc.Pool_alloc.largest_free fs.Repro_baselines.Basefs.alloc)
    (E.statfs fs).Types.free !stores
    (!store_bytes / max 1 !stores)
    !loads;
  Printf.printf
    "breakdown: statfs %5.2fs (%d) create %5.2fs (%d) pwrite %5.2fs (%d) fsync %5.2fs \
     close %5.2fs unlink %5.2fs (%d)\n%!"
    !t_statfs !n_statfs !t_create !n_create !t_pwrite !n_pwrite !t_fsync !t_close
    !t_unlink !n_unlink

let () =
  if (try Sys.argv.(2) = "frag" with _ -> false) then begin
    frag_probe ();
    exit 0
  end;
  let device_bytes = 384 * Units.mib * scale in
  let churn_bytes = device_bytes * 48 in
  List.iter
    (fun (f : Registry.factory) ->
      List.iter (fun a -> a := 0.) [ t_statfs; t_create; t_pwrite; t_fsync; t_close; t_unlink ];
      List.iter (fun a -> a := 0) [ n_statfs; n_create; n_pwrite; n_unlink ];
      let dev = Device.create ~size:device_bytes () in
      let h = f.make dev (Types.config ~cpus:4 ~inodes_per_cpu:8192 ()) in
      let t0 = now () in
      let g0 = Gc.quick_stat () in
      start_sampler ();
      age h ~churn_bytes ~target_util:0.75;
      stop_sampler ();
      let g1 = Gc.quick_stat () in
      Printf.printf
        "gc: minor_words %.2e promoted %.2e major_words %.2e minors %d majors %d compactions %d\n"
        (g1.Gc.minor_words -. g0.Gc.minor_words)
        (g1.Gc.promoted_words -. g0.Gc.promoted_words)
        (g1.Gc.major_words -. g0.Gc.major_words)
        (g1.Gc.minor_collections - g0.Gc.minor_collections)
        (g1.Gc.major_collections - g0.Gc.major_collections)
        (g1.Gc.compactions - g0.Gc.compactions);
      let total = now () -. t0 in
      Printf.printf
        "%-14s total %6.2fs | statfs %5.2fs (%d) create %5.2fs (%d) pwrite %5.2fs (%d) \
         fsync %5.2fs close %5.2fs unlink %5.2fs (%d)\n%!"
        f.fs_name total !t_statfs !n_statfs !t_create !n_create !t_pwrite !n_pwrite
        !t_fsync !t_close !t_unlink !n_unlink)
    (match try Sys.argv.(2) with _ -> "both" with
    | "ext4" -> [ Registry.ext4_dax ]
    | "winefs" -> [ Registry.winefs ]
    | "nova" -> [ Registry.nova ]
    | "strata" -> [ Registry.strata ]
    | "splitfs" -> [ Registry.splitfs ]
    | "pmfs" -> [ Registry.pmfs ]
    | _ -> [ Registry.ext4_dax; Registry.winefs ])
