(* crashmonkey — run the ACE/CrashMonkey-style crash-consistency campaign
   against WineFS (§5.2).

   Examples:
     crashmonkey                 # every workload, strict mode
     crashmonkey --seq 2         # only two-op sequences
     crashmonkey --verbose       # list each workload *)

open Cmdliner
module Checker = Repro_crashcheck.Checker
module Ace = Repro_crashcheck.Ace

let run seq verbose =
  let workloads =
    match Ace.of_seq seq with
    | Ok workloads -> workloads
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  Printf.printf "Running %d ACE workloads against WineFS (strict mode)...\n%!"
    (List.length workloads);
  let total_points = ref 0 and total_states = ref 0 and failed = ref 0 in
  List.iter
    (fun (w : Ace.workload) ->
      let r = Checker.run ~workloads:[ w ] () in
      total_points := !total_points + r.crash_points;
      total_states := !total_states + r.states_checked;
      failed := !failed + List.length r.failures;
      if verbose || r.failures <> [] then begin
        Printf.printf "  %-28s %4d crash points %6d states %s\n%!" w.w_name r.crash_points
          r.states_checked
          (if r.failures = [] then "ok" else "FAILED");
        List.iter (fun (_, d) -> Printf.printf "      %s\n" d) r.failures
      end)
    workloads;
  Printf.printf
    "\ncampaign: %d workloads, %d crash points, %d crash states, %d inconsistencies\n"
    (List.length workloads) !total_points !total_states !failed;
  if !failed = 0 then begin
    print_endline "WineFS recovered to a consistent state from every crash state.";
    0
  end
  else 1

let () =
  let seq = Arg.(value & opt int 0 & info [ "seq" ] ~doc:"Workload length (1-3; 0 = all)") in
  let verbose = Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"Print each workload") in
  let cmd =
    Cmd.v
      (Cmd.info "crashmonkey" ~doc:"Crash-consistency campaign against WineFS")
      Term.(const run $ seq $ verbose)
  in
  exit (Cmd.eval' cmd)
