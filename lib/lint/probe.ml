module Sched = Repro_sched.Sched
module Device = Repro_pmem.Device
module Types = Repro_vfs.Types
module Basefs = Repro_baselines.Basefs
module Race = Repro_race.Race
module Scenarios = Repro_race.Scenarios
open Repro_util

type result = {
  observed_edges : (string * string) list;
  runtime_cycle : string list option;
  acquisitions : int;
  diags : Diag.t list;
}

let rule = "lock-order"

(* A small two-thread workload on the PMFS preset: exercises the
   basefs hierarchy (parent/file locks, the journal mutex behind
   meta_sync) that the race scenarios do not touch. *)
let basefs_workload () =
  let dev = Device.create ~cost:Device.Cost.free ~size:(64 * Units.mib) () in
  let fs = Basefs.format Basefs.pmfs dev Types.default_config in
  ignore
    (Sched.run ~threads:2 (fun (cpu : Cpu.t) ->
         let dir = Printf.sprintf "/d%d" cpu.id in
         Basefs.mkdir fs cpu dir;
         let path = dir ^ "/f" in
         let fd = Basefs.create fs cpu path in
         ignore (Basefs.pwrite fs cpu fd ~off:0 ~src:"probe" : int);
         Basefs.fsync fs cpu fd;
         Basefs.close fs cpu fd;
         Basefs.rename fs cpu ~old_path:path ~new_path:(dir ^ "/g");
         Basefs.unlink fs cpu (dir ^ "/g");
         Basefs.rmdir fs cpu dir)
      : Sched.stats)

let run files =
  let graph, _ = Lock_order.build files in
  Sched.Lock_order.reset ();
  List.iter (fun sc -> ignore (Race.check sc : Race.race list)) Scenarios.all;
  basefs_workload ();
  let observed = Sched.Lock_order.named_edges () in
  let cycle = Sched.Lock_order.cycle () in
  let diags =
    (match cycle with
    | Some labels ->
        [
          Diag.at ~file:"<runtime>" ~line:0 ~col:0 ~rule
            ~hint:"this is a real acquired-before cycle observed while running; fix the \
                   acquisition order"
            (Printf.sprintf "runtime lock-order cycle between {%s}" (String.concat ", " labels));
        ]
    | None -> [])
    @ Lock_order.containment_diags graph ~observed
  in
  {
    observed_edges = observed;
    runtime_cycle = cycle;
    acquisitions = Sched.Lock_order.acquisitions ();
    diags;
  }

(* ------------------------------------------------------------------ *)
(* Flow containment: replay the paired persist-order scenarios.        *)

type flow_result = {
  flow_scenarios : (string * bool * bool) list;  (* name, static flagged, dynamic error *)
  flow_diags : Diag.t list;
}

let run_flow () =
  let results =
    List.map
      (fun (sc : Flow_scenarios.t) ->
        let st = Flow_scenarios.static_diags sc <> [] in
        let dyn = Flow_scenarios.dynamic_errors sc <> [] in
        (sc, st, dyn))
      Flow_scenarios.all
  in
  let diags =
    List.concat_map
      (fun ((sc : Flow_scenarios.t), st, dyn) ->
        let fail hint fmt =
          Printf.ksprintf
            (fun msg -> [ Diag.at ~file:"<flow-probe>" ~line:0 ~col:0 ~rule:Flowcheck.rule ~hint msg ])
            fmt
        in
        (if dyn && not st then
           fail
             "the dataflow must subsume the dynamic rules on every executed path; widen the \
              lattice/anchor handling rather than weakening the scenario"
             "containment violated: the sanitizer flags scenario %s but flowcheck does not" sc.name
         else [])
        @ (if st <> sc.expect_static then
             fail "the scenario or the analyzer regressed; see Flow_scenarios"
               "scenario %s: flowcheck %s but the scenario expects %s" sc.name
               (if st then "fires" else "is silent")
               (if sc.expect_static then "a diagnostic" else "silence")
           else [])
        @
        if dyn <> sc.expect_dynamic then
          fail "the scenario or the sanitizer regressed; see Flow_scenarios"
            "scenario %s: the sanitizer %s but the scenario expects %s" sc.name
            (if dyn then "errors" else "is silent")
            (if sc.expect_dynamic then "an error" else "silence")
        else [])
      results
  in
  {
    flow_scenarios = List.map (fun ((sc : Flow_scenarios.t), st, dyn) -> (sc.name, st, dyn)) results;
    flow_diags = diags;
  }
