(* The §5.2 coreutils study as a runnable example: four real argv-dependent
   crash bugs, reproduced under all four instrumentation methods.

   Run with:  dune exec examples/coreutils_bugs.exe *)

module Config = Bugrepro.Pipeline.Config
module Run = Bugrepro.Pipeline.Run

let () =
  List.iter
    (fun (e : Workloads.Coreutils.entry) ->
      Printf.printf "== %s ==\n%s\n" e.util e.bug_description;
      let prog = Lazy.force e.prog in
      (* the developer's analysis uses a generic argv shape, not the
         (unknown) crashing input *)
      let analysis =
        Run.analyze
          (Config.with_budget
             ~dynamic:{ Concolic.Engine.max_runs = 120; max_time_s = 10.0 }
             Config.default)
          ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
          prog
      in
      let crash_sc = Workloads.Coreutils.crash_scenario e in
      Printf.printf "crashing invocation: %s %s\n" e.util
        (String.concat " " e.crashing_args);
      List.iter
        (fun meth ->
          let plan = Run.plan Config.default analysis meth in
          let _, report = Run.field_run_report Config.default ~plan crash_sc in
          match report with
          | None -> Printf.printf "  %-16s field run did not crash?!\n"
                      (Instrument.Methods.to_string meth)
          | Some report ->
              let result, _ =
                Run.reproduce
                  (Config.with_budget
                     ~replay:{ Concolic.Engine.max_runs = 5000; max_time_s = 15.0 }
                     Config.default)
                  ~prog ~plan report
              in
              let verdict =
                match result with
                | Replay.Guided.Reproduced r ->
                    Printf.sprintf "reproduced in %.3fs (%d runs)" r.elapsed_s r.runs
                | Replay.Guided.Not_reproduced _ -> "NOT reproduced"
              in
              Printf.printf "  %-16s %d instrumented, %d bits logged -> %s\n"
                (Instrument.Methods.to_string meth)
                plan.n_instrumented
                (Instrument.Report.nbits report)
                verdict)
        Instrument.Methods.instrumented;
      print_newline ())
    Workloads.Coreutils.catalog
