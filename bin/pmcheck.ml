(* pmcheck — concurrency + persistence checkers over the simulated PM stack.

   The default command is the persistence-ordering lint: it runs the ACE
   workload corpus (and a micro-workload suite) against WineFS with the
   durability sanitizer attached, and reports every flush/fence-ordering
   violation with the site that caused it.

   `pmcheck racecheck` runs the data-race detector over the concurrency
   scenario suite, exploring seeded thread schedules.

   `pmcheck faultcheck` runs the media-fault campaign: seeded bit flips,
   poisoned lines and torn words planted in WineFS images, verifying each
   one is repaired or safely refused — never silently absorbed.

   `pmcheck srccheck` runs the AST-based static analyzer over this
   repository's own sources (all six rules), plus a dynamic probe that
   replays the scenario suite and cross-checks the observed lock order
   against the static graph.

   `pmcheck flowcheck` runs just the two flow-sensitive dataflow rules
   (persist-order, determinism), plus the flow containment probe that
   replays the paired crash-consistency scenarios and requires the
   static analysis to subsume everything the dynamic sanitizer catches.

   Examples:
     pmcheck                       # all ACE workloads + micro suite, report
     pmcheck --seq 2               # only two-op ACE sequences
     pmcheck --strict              # exit at the first violation
     pmcheck --rules R1,R4        # check a subset of the rules
     pmcheck racecheck             # explore 50 schedules per scenario
     pmcheck racecheck --seed 7    # replay the single schedule seed 7 picks
     pmcheck faultcheck            # fault campaign over the ACE seq-1 corpus
     pmcheck faultcheck --seed 9   # replay the campaign seed 9 determines
     pmcheck srccheck lib bin      # static rules + dynamic lock-order probe
     pmcheck flowcheck --format=json   # dataflow rules, machine-readable *)

open Cmdliner
module Ace = Repro_crashcheck.Ace
module Faultcheck = Repro_crashcheck.Faultcheck
module Torturecheck = Repro_crashcheck.Torturecheck
module Fsck_scenarios = Repro_crashcheck.Fsck_scenarios
module Sanitize = Repro_crashcheck.Sanitize
module Sanitizer = Sanitize.Sanitizer
module Race = Repro_race.Race
module Scenarios = Repro_race.Scenarios
module Sched = Repro_sched.Sched
module Table = Repro_util.Table
module Lint = Repro_lint.Lint
module Lint_source = Repro_lint.Source
module Lint_diag = Repro_lint.Diag
module Probe = Repro_lint.Probe

let parse_rules s =
  let name_of = function
    | "R1" -> Some Sanitizer.R1_missing_flush
    | "R2" -> Some Sanitizer.R2_missing_fence
    | "R3" -> Some Sanitizer.R3_redundant_flush
    | "R4" -> Some Sanitizer.R4_undo_protocol
    | "R5" -> Some Sanitizer.R5_commit_order
    | _ -> None
  in
  String.split_on_char ',' s
  |> List.map (fun r ->
         match name_of (String.trim r) with
         | Some rule -> rule
         | None ->
             Printf.eprintf "unknown rule %S (expected R1..R5)\n" r;
             exit 2)

let workloads_of_seq seq =
  match Ace.of_seq seq with
  | Ok workloads -> workloads
  | Error msg ->
      prerr_endline msg;
      exit 2

let run_lint seq strict no_micro relaxed rules verbose =
  let rules = match rules with "" -> Sanitizer.all_rules | s -> parse_rules s in
  let workloads = workloads_of_seq seq in
  let mode = if relaxed then Repro_vfs.Types.Relaxed else Repro_vfs.Types.Strict in
  Printf.printf "pmcheck: %d ACE workloads%s, %s mode%s\n%!" (List.length workloads)
    (if no_micro then "" else " + micro suite")
    (if relaxed then "relaxed" else "strict")
    (if strict then ", stopping at the first violation" else "");
  match
    let ace = Sanitize.run_ace ~strict ~rules ~mode workloads in
    let micro = if no_micro then [] else Sanitize.run_micro ~strict ~rules () in
    ace @ micro
  with
  | exception Sanitizer.Violation d ->
      Printf.printf "VIOLATION: %s\n" (Sanitizer.diag_to_string d);
      1
  | reports ->
      let table =
        Table.create ~title:"Durability violations"
          ~columns:[ "workload"; "rule"; "severity"; "site"; "cacheline"; "count"; "detail" ]
      in
      let rows = ref 0 in
      List.iter
        (fun (r : Sanitize.report) ->
          List.iter
            (fun (d : Sanitizer.diag) ->
              incr rows;
              Table.add_row table
                [
                  r.name;
                  Sanitizer.rule_name d.rule;
                  (match d.severity with Sanitizer.Error -> "error" | Warning -> "warning");
                  Repro_pmem.Site.to_string d.site;
                  Printf.sprintf "%d (0x%x)" d.line (Sanitizer.diag_offset d);
                  string_of_int d.count;
                  d.detail;
                ])
            r.diags)
        reports;
      if verbose then
        List.iter
          (fun (r : Sanitize.report) ->
            Printf.printf "  %-28s %s\n" r.name
              (if r.diags = [] then "clean"
               else Printf.sprintf "%d diagnostic(s)" (List.length r.diags)))
          reports;
      if !rows > 0 then Table.print table;
      let errors = Sanitize.total_errors reports in
      Printf.printf "\npmcheck: %d workloads, %d diagnostics (%d errors)\n"
        (List.length reports) !rows errors;
      if errors = 0 then begin
        print_endline "No persistence-ordering violations.";
        0
      end
      else 1

(* racecheck: run every scenario under the detector.  Clean scenarios must
   stay silent across all explored schedules; planted-bug scenarios must
   be flagged.  Exit 0 only when both hold, so the runtest alias catches a
   detector that goes blind as loudly as a discipline regression. *)
let run_racecheck schedules base_seed replay_seed scenario_filter verbose =
  let scenarios =
    match scenario_filter with
    | "" -> Scenarios.all
    | name -> (
        match Scenarios.find name with
        | Some s -> [ s ]
        | None ->
            Printf.eprintf "unknown scenario %S (have: %s)\n" name
              (String.concat ", " (List.map (fun s -> s.Race.sc_name) Scenarios.all));
            exit 2)
  in
  let expect_racy s = List.exists (fun r -> r.Race.sc_name = s.Race.sc_name) Scenarios.racy in
  (match replay_seed with
  | Some s -> Printf.printf "pmcheck racecheck: replaying schedule seed %d\n%!" s
  | None ->
      Printf.printf "pmcheck racecheck: %d scenarios x %d schedules (base seed %d)\n%!"
        (List.length scenarios) schedules base_seed);
  Sched.Lock_order.reset ();
  let failures = ref 0 in
  List.iter
    (fun sc ->
      let races, explored =
        match replay_seed with
        | Some seed -> (Race.check ~seed sc, 1)
        | None ->
            let o = Race.explore ~schedules ~seed:base_seed sc in
            (o.o_races, o.o_schedules)
      in
      let racy = expect_racy sc in
      let ok = if racy then races <> [] else races = [] in
      if not ok then incr failures;
      Printf.printf "  %-16s %-8s %d race(s) over %d schedule(s)%s\n" sc.Race.sc_name
        (if racy then "[racy]" else "[clean]")
        (List.length races) explored
        (if ok then "" else "  <-- UNEXPECTED");
      if verbose || not ok then
        List.iter (fun r -> Printf.printf "      %s\n" (Race.race_to_string r)) races)
    scenarios;
  (* The recorder accumulated every acquisition across all explored
     schedules; a cycle in that union is a potential ABBA deadlock even
     though no single schedule deadlocked. *)
  (match Sched.Lock_order.cycle () with
  | Some labels ->
      incr failures;
      Printf.printf "  lock-order: observed acquired-before cycle {%s}  <-- UNEXPECTED\n"
        (String.concat ", " labels)
  | None ->
      Printf.printf "  lock-order: %d acquisition(s), %d distinct edge(s), acyclic\n"
        (Sched.Lock_order.acquisitions ())
        (List.length (Sched.Lock_order.edges ())));
  if !failures = 0 then begin
    print_endline "racecheck: all scenarios behaved as expected.";
    0
  end
  else begin
    Printf.printf "racecheck: %d check(s) misbehaved.\n" !failures;
    1
  end

(* Shared by srccheck/flowcheck: the --format=json payload is the lint
   report plus whichever probe ran, one self-describing object on stdout
   (the exit code still carries the verdict). *)
let check_format = function
  | "human" | "json" -> ()
  | f ->
      Printf.eprintf "--format must be human or json (got %s)\n" f;
      exit 2

let print_json report ~probe_fields ~probe_diags =
  let open Repro_stats.Json in
  let base = match Lint.report_to_json report with Obj fields -> fields | j -> [ ("report", j) ] in
  let fields =
    base @ probe_fields @ [ ("probe_diags", List (List.map Lint_diag.to_json probe_diags)) ]
  in
  print_endline (to_string ~indent:true (Obj fields))

(* srccheck: all six AST rules over the repo's own sources, then the
   dynamic probe (scenario suite + a small basefs workload under the
   lock-order recorder) cross-checking static ⊇ observed.  Exit 0 clean,
   1 on violations, 2 when a source file does not even parse. *)
let run_srccheck roots no_probe format verbose =
  check_format format;
  let json = format = "json" in
  let roots = match roots with [] -> [ "lib"; "bin" ] | r -> r in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    Printf.eprintf "srccheck: no such file or directory: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let files, parse = Lint_source.load_roots roots in
  let report = Lint.run files ~parse in
  if not json then begin
    Printf.printf "pmcheck srccheck: %d files under %s, rules: %s\n%!" report.Lint.files_scanned
      (String.concat " " roots)
      (String.concat ", " (List.map fst Lint.rules));
    List.iter (fun d -> print_endline ("  " ^ Lint_diag.to_string d)) report.Lint.diags
  end;
  let probe = if no_probe then None else Some (Probe.run files) in
  let probe_diags = match probe with None -> [] | Some p -> p.Probe.diags in
  if json then
    let open Repro_stats.Json in
    let probe_fields =
      match probe with
      | None -> [ ("probe", String "skipped") ]
      | Some p ->
          [
            ( "probe",
              Obj
                [
                  ("acquisitions", Int p.Probe.acquisitions);
                  ("named_edges", Int (List.length p.Probe.observed_edges));
                  ("cyclic", Bool (p.Probe.runtime_cycle <> None));
                ] );
          ]
    in
    print_json report ~probe_fields ~probe_diags
  else begin
    let probe_note =
      match probe with
      | None -> "skipped"
      | Some p ->
          Printf.sprintf "%d acquisition(s), %d named edge(s), %s" p.Probe.acquisitions
            (List.length p.Probe.observed_edges)
            (match p.Probe.runtime_cycle with Some _ -> "CYCLIC" | None -> "acyclic")
    in
    List.iter (fun d -> print_endline ("  " ^ Lint_diag.to_string d)) probe_diags;
    if verbose then
      List.iter
        (fun (rule, checker) ->
          Printf.printf "  %-16s %d diagnostic(s)\n" rule
            (List.length (List.filter (fun d -> d.Lint_diag.rule = rule) report.Lint.diags));
          ignore checker)
        Lint.rules;
    Printf.printf "srccheck: %d diagnostic(s), %d suppressed, dynamic probe: %s\n"
      (List.length report.Lint.diags + List.length probe_diags)
      report.Lint.suppressed probe_note
  end;
  let total = List.length report.Lint.diags + List.length probe_diags in
  if report.Lint.parse_errors > 0 then 2
  else if total > 0 then 1
  else begin
    if not json then
      print_endline "No layering, lock-order, persist-site or error-discipline violations.";
    0
  end

(* flowcheck: the two flow-sensitive dataflow rules (persist-order,
   determinism) over the repo's own sources, plus the containment probe
   replaying the paired crash-consistency scenarios — every dynamic
   sanitizer error must be statically subsumed, and the planted
   branch-only bug must stay dynamically invisible but statically
   caught.  Exit 0 clean, 1 on violations, 2 on parse errors. *)
let run_flowcheck roots no_probe format verbose =
  check_format format;
  let json = format = "json" in
  let roots = match roots with [] -> [ "lib"; "bin" ] | r -> r in
  let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
  if missing <> [] then begin
    Printf.eprintf "flowcheck: no such file or directory: %s\n" (String.concat ", " missing);
    exit 2
  end;
  let files, parse = Lint_source.load_roots roots in
  let report = Lint.run ~only:Lint.flow_rules files ~parse in
  let flow = if no_probe then None else Some (Probe.run_flow ()) in
  let probe_diags = match flow with None -> [] | Some f -> f.Probe.flow_diags in
  if json then
    let open Repro_stats.Json in
    let probe_fields =
      match flow with
      | None -> [ ("probe", String "skipped") ]
      | Some f ->
          [
            ( "probe",
              List
                (List.map
                   (fun (name, st, dyn) ->
                     Obj
                       [
                         ("scenario", String name);
                         ("static_flagged", Bool st);
                         ("dynamic_error", Bool dyn);
                       ])
                   f.Probe.flow_scenarios) );
          ]
    in
    print_json report ~probe_fields ~probe_diags
  else begin
    Printf.printf "pmcheck flowcheck: %d files under %s, rules: %s\n%!" report.Lint.files_scanned
      (String.concat " " roots)
      (String.concat ", " Lint.flow_rules);
    List.iter (fun d -> print_endline ("  " ^ Lint_diag.to_string d)) report.Lint.diags;
    (match flow with
    | None -> print_endline "containment probe: skipped"
    | Some f ->
        if verbose || f.Probe.flow_diags <> [] then
          List.iter
            (fun (name, st, dyn) ->
              Printf.printf "  scenario %-24s static=%-5b dynamic=%b\n" name st dyn)
            f.Probe.flow_scenarios;
        List.iter (fun d -> print_endline ("  " ^ Lint_diag.to_string d)) f.Probe.flow_diags;
        Printf.printf "containment probe: %d scenario(s), static ⊇ dynamic %s\n"
          (List.length f.Probe.flow_scenarios)
          (if f.Probe.flow_diags = [] then "holds" else "VIOLATED"));
    Printf.printf "flowcheck: %d diagnostic(s), %d suppressed\n"
      (List.length report.Lint.diags + List.length probe_diags)
      report.Lint.suppressed
  end;
  let total = List.length report.Lint.diags + List.length probe_diags in
  if report.Lint.parse_errors > 0 then 2
  else if total > 0 then 1
  else begin
    if not json then print_endline "No persist-order or determinism violations.";
    0
  end

(* faultcheck: plant seeded media faults and verify each is repaired or
   safely refused.  Exit 0 clean, 1 when any fault was silently absorbed
   or mishandled, 2 on usage errors — so the runtest alias treats a lost
   detection exactly like a failing test. *)
let run_faultcheck seed seq torn_fences verbose =
  let workloads = workloads_of_seq seq in
  if torn_fences < 0 then begin
    Printf.eprintf "--torn-fences must be non-negative (got %d)\n" torn_fences;
    exit 2
  end;
  Printf.printf "pmcheck faultcheck: %d workloads, torn crashes at %d fences (seed %d)\n%!"
    (List.length workloads) torn_fences seed;
  let r = Faultcheck.run ~seed ~workloads ~torn_fences () in
  if verbose || r.findings <> [] then
    List.iter
      (fun (f : Faultcheck.finding) ->
        Printf.printf "  FINDING %s/%s: %s\n      %s\n" f.f_workload f.f_scenario f.f_fault
          f.f_diagnosis)
      r.findings;
  Printf.printf
    "faultcheck: %d scenarios, %d faults planted, %d repaired, %d refused, %d finding(s) \
     (seed %d)\n"
    r.scenarios_run r.faults_planted r.repaired r.refused
    (List.length r.findings) r.seed;
  if r.findings = [] then begin
    Printf.printf "Every planted fault was repaired or safely refused (replay: --seed %d).\n"
      r.seed;
    0
  end
  else begin
    Printf.printf "Silent or mishandled faults detected (replay: --seed %d).\n" r.seed;
    1
  end

(* fsckcheck: the planted-corruption scenario suite for winefs_fsck —
   each scenario damages an image in a precisely-known way, runs fsck
   and demands the exact intended repair, convergence and a writable
   remount.  Exit 0 clean, 1 on any misbehaving scenario. *)
let run_fsckcheck format =
  check_format format;
  let outcomes = Fsck_scenarios.run () in
  let bad = List.filter (fun o -> not o.Fsck_scenarios.ok) outcomes in
  if format = "json" then
    let open Repro_stats.Json in
    print_endline
      (to_string ~indent:true
         (Obj
            [
              ("scenarios", Int (List.length outcomes));
              ("failures", Int (List.length bad));
              ( "outcomes",
                List
                  (List.map
                     (fun (o : Fsck_scenarios.outcome) ->
                       Obj
                         [
                           ("scenario", String o.s_name);
                           ("ok", Bool o.ok);
                           ("detail", String o.detail);
                         ])
                     outcomes) );
            ]))
  else begin
    Printf.printf "pmcheck fsckcheck: %d planted-corruption scenarios\n%!"
      (List.length outcomes);
    List.iter
      (fun (o : Fsck_scenarios.outcome) ->
        Printf.printf "  %-18s %s  %s\n" o.s_name (if o.ok then "ok" else "FAIL") o.detail)
      outcomes;
    if bad = [] then print_endline "Every planted corruption was repaired as intended."
  end;
  if bad = [] then 0 else 1

(* torturecheck: the seeded crash-fsck-remount campaign.  Exit 0 when
   every iteration ends in a writable invariant-clean remount, 1
   otherwise, 2 on usage errors. *)
let run_torturecheck seed iterations fault_rate format verbose =
  check_format format;
  if iterations < 1 then begin
    Printf.eprintf "--iterations must be positive (got %d)\n" iterations;
    exit 2
  end;
  if fault_rate < 0.0 || fault_rate > 1.0 then begin
    Printf.eprintf "--fault-rate must be in [0,1] (got %g)\n" fault_rate;
    exit 2
  end;
  if format <> "json" then
    Printf.printf "pmcheck torturecheck: %d crash+fsck+remount iterations (seed %d)\n%!"
      iterations seed;
  let r = Torturecheck.run ~seed ~iterations ~fault_rate () in
  if format = "json" then
    let open Repro_stats.Json in
    print_endline
      (to_string ~indent:true
         (Obj
            [
              ("seed", Int r.Torturecheck.seed);
              ("iterations", Int r.iterations);
              ("workloads", Int r.workloads);
              ("crashes", Int r.crashes);
              ("faults_planted", Int r.faults_planted);
              ("repairs", Int r.repairs);
              ("orphans_reattached", Int r.orphans);
              ( "failures",
                List
                  (List.map
                     (fun (f : Torturecheck.failure) ->
                       Obj
                         [
                           ("iteration", Int f.t_iter);
                           ("workload", String f.t_workload);
                           ("fence", Int f.t_fence);
                           ("diagnosis", String f.t_diagnosis);
                         ])
                     r.failures) );
            ]))
  else begin
    if verbose || r.failures <> [] then
      List.iter
        (fun (f : Torturecheck.failure) ->
          Printf.printf "  FAILURE it %d %s fence %d: %s\n" f.t_iter f.t_workload f.t_fence
            f.t_diagnosis)
        r.failures;
    Printf.printf
      "torturecheck: %d iterations over %d workloads, %d crashes, %d faults planted, %d \
       repairs, %d orphans reattached, %d failure(s) (seed %d)\n"
      r.iterations r.workloads r.crashes r.faults_planted r.repairs r.orphans
      (List.length r.failures) r.seed;
    if r.failures = [] then
      Printf.printf
        "Every crash image repaired to a writable, invariant-clean mount (replay: --seed %d).\n"
        r.seed
    else Printf.printf "Unhealable crash images detected (replay: --seed %d).\n" r.seed
  end;
  if r.failures = [] then 0 else 1

let lint_term =
  let seq = Arg.(value & opt int 0 & info [ "seq" ] ~doc:"ACE workload length (1-3; 0 = all)") in
  let strict =
    Arg.(value & flag & info [ "strict" ] ~doc:"Raise at the first violating access")
  in
  let no_micro = Arg.(value & flag & info [ "no-micro" ] ~doc:"Skip the micro-workload suite") in
  let relaxed =
    Arg.(value & flag & info [ "relaxed" ] ~doc:"Run the file system in relaxed mode")
  in
  let rules =
    Arg.(value & opt string "" & info [ "rules" ] ~doc:"Comma-separated rule subset (R1..R5)")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print each workload") in
  Term.(const run_lint $ seq $ strict $ no_micro $ relaxed $ rules $ verbose)

let racecheck_cmd =
  let schedules =
    Arg.(value & opt int 50 & info [ "schedules" ] ~doc:"Seeded schedules to explore per scenario")
  in
  let base_seed =
    Arg.(value & opt int 42 & info [ "base-seed" ] ~doc:"Seed deriving the explored schedules")
  in
  let replay_seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~doc:"Replay the single schedule this seed determines")
  in
  let scenario =
    Arg.(value & opt string "" & info [ "scenario" ] ~doc:"Run only the named scenario")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every reported race") in
  Cmd.v
    (Cmd.info "racecheck" ~doc:"Data-race detector over the concurrency scenario suite")
    Term.(const run_racecheck $ schedules $ base_seed $ replay_seed $ scenario $ verbose)

let faultcheck_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed (printed in every report)")
  in
  let seq =
    Arg.(value & opt int 1 & info [ "seq" ] ~doc:"ACE workload length (1-3; 0 = all)")
  in
  let torn_fences =
    Arg.(
      value
      & opt int 4
      & info [ "torn-fences" ] ~doc:"Torn-word crash points per workload (0 disables)")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every finding, even when clean")
  in
  Cmd.v
    (Cmd.info "faultcheck"
       ~doc:"Media-fault campaign: verify faults are repaired or safely refused")
    Term.(const run_faultcheck $ seed $ seq $ torn_fences $ verbose)

let fsckcheck_cmd =
  let format =
    Arg.(value & opt string "human" & info [ "format" ] ~doc:"Output format: human or json")
  in
  Cmd.v
    (Cmd.info "fsckcheck"
       ~doc:"Planted-corruption scenarios: fsck must repair each exactly as intended")
    Term.(const run_fsckcheck $ format)

let torturecheck_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Campaign seed (printed in every report)")
  in
  let iterations =
    Arg.(value & opt int 60 & info [ "iterations" ] ~doc:"Crash+fsck+remount iterations")
  in
  let fault_rate =
    Arg.(
      value
      & opt float 0.5
      & info [ "fault-rate" ] ~doc:"Fraction of crash images that also get a media fault")
  in
  let format =
    Arg.(value & opt string "human" & info [ "format" ] ~doc:"Output format: human or json")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every failure, even when clean")
  in
  Cmd.v
    (Cmd.info "torturecheck"
       ~doc:"Crash-fsck-remount torture campaign: every wreck must repair to writable")
    Term.(const run_torturecheck $ seed $ iterations $ fault_rate $ format $ verbose)

let roots_arg =
  Arg.(value & pos_all string [] & info [] ~docv:"ROOT" ~doc:"Source roots (default lib bin)")

let format_arg =
  Arg.(value & opt string "human" & info [ "format" ] ~doc:"Output format: human or json")

let srccheck_cmd =
  let no_probe =
    Arg.(
      value & flag
      & info [ "no-probe" ] ~doc:"Skip the dynamic lock-order probe (static rules only)")
  in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Per-rule diagnostic counts") in
  Cmd.v
    (Cmd.info "srccheck" ~doc:"AST-based static analysis of the repository's own sources")
    Term.(const run_srccheck $ roots_arg $ no_probe $ format_arg $ verbose)

let flowcheck_cmd =
  let no_probe =
    Arg.(
      value & flag
      & info [ "no-probe" ] ~doc:"Skip the flow containment probe (static rules only)")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print every probe scenario outcome")
  in
  Cmd.v
    (Cmd.info "flowcheck"
       ~doc:"Flow-sensitive persist-order and determinism dataflow over the sources")
    Term.(const run_flowcheck $ roots_arg $ no_probe $ format_arg $ verbose)

let () =
  let info = Cmd.info "pmcheck" ~doc:"Concurrency and persistence checkers for the WineFS PM stack" in
  exit
    (Cmd.eval'
       (Cmd.group ~default:lint_term info
          [ racecheck_cmd; faultcheck_cmd; fsckcheck_cmd; torturecheck_cmd; srccheck_cmd;
            flowcheck_cmd ]))
