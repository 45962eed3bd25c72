(* Workload [repro]: the developer site, over the paper's fixed bug set —
   Table 1 (four coreutils under dynamic, dyn+static and static), Table 3
   (µServer experiments 1-5 under dyn+static and static) and Table 6 (diff
   experiments 1-2 under dyn+static and static), 26 bugs.  Each bug runs
   field run -> wire -> strict read -> guided replay at jobs = 1 under a
   run bound, and every synthesised input is re-executed to check that it
   crashes at the reported site.  The engine, the solver and replay
   bookkeeping dominate. *)

module Tally = Check.Tally
module Methods = Instrument.Methods

type bug = {
  name : string;
  program : Setup.program;
  plan : Instrument.Plan.t;
  scenario : Concolic.Scenario.t;
}

type env = bug list

let method_name m = Instrument.Methods.to_string m

let setup ~smoke (c : Setup.Config.t) tally =
  let bugs (p : Setup.program) meths scenarios =
    List.concat_map
      (fun (label, sc) ->
        List.map
          (fun m ->
            {
              name = Printf.sprintf "%s/%s" label (method_name m);
              program = p;
              plan = Setup.plan p.cfg ~name:p.name p.analysis m;
              scenario = sc;
            })
          meths)
      scenarios
  in
  let coreutils =
    List.concat_map
      (fun (e : Workloads.Coreutils.entry) ->
        bugs (Setup.coreutil c tally e)
          (if smoke then [ Methods.Static ]
           else [ Methods.Dynamic; Methods.Dynamic_static; Methods.Static ])
          [ (e.util, Workloads.Coreutils.crash_scenario e) ])
      (if smoke then [ Workloads.Coreutils.find "paste" ]
       else Workloads.Coreutils.catalog)
  in
  if smoke then coreutils
  else
    let both = [ Methods.Dynamic_static; Methods.Static ] in
    let userver =
      bugs (Setup.userver c tally) both
        (List.map
           (fun (e : Workloads.Userver.experiment) ->
             ( Printf.sprintf "userver-exp%d" e.id,
               Workloads.Userver.experiment_scenario e ))
           Workloads.Userver.experiments)
    in
    let diff =
      bugs (Setup.diff c tally) both
        [
          ("diff-exp1", Workloads.Diffutil.experiment_1 ());
          ("diff-exp2", Workloads.Diffutil.experiment_2 ());
        ]
    in
    coreutils @ userver @ diff

(* Run the synthesised input once more, concretely: the replay kernel
   supplies input bytes from the model and syscall results from the
   shipped log, but no branch log steers or aborts the run. *)
let crashes_at_site (b : bug) (report : Instrument.Report.t)
    (stats : Replay.Guided.stats) model =
  let rk =
    Replay.Rkernel.create ~vars:stats.vars ~model ~shape:report.shape
      ~syscall_log:report.syscall_log ~seed:b.program.cfg.seed ()
  in
  let r =
    Interp.Eval.run (Setup.prog b.program)
      {
        Interp.Eval.default_config with
        inputs = Replay.Rkernel.symbolic_args rk;
        kernel = Replay.Rkernel.kernel rk;
        max_steps = b.program.cfg.replay_max_steps;
      }
  in
  match r.outcome with
  | Interp.Crash.Crash c -> Interp.Crash.equal_site c report.crash
  | Interp.Crash.Exit _ | Budget_exhausted | Aborted _ -> false

(* The §3.1 case counters. *)
let tally_cases tally (k : Replay.Guided.case_stats) =
  Tally.addi tally "replay.case1_forked" k.case1;
  Tally.addi tally "replay.case2b_forced" k.case2b;
  Tally.addi tally "replay.case3b_aborted" k.case3b;
  Tally.addi tally "replay.log_exhausted" k.log_exhausted

let tally_stats tally (s : Replay.Guided.stats) =
  let e = s.engine in
  Tally.addi tally "concolic.runs" e.runs;
  Tally.addi tally "concolic.forks" e.forks;
  Tally.max_ tally "concolic.pending_peak" (float_of_int e.pending_peak);
  Tally.addi tally "concolic.core_pruned" e.core_pruned;
  Tally.addi tally "solver.calls" e.solver_calls;
  Tally.addi tally "solver.sat" e.sat;
  Tally.addi tally "solver.unsat" e.unsat;
  Tally.addi tally "solver.unknown" e.unknown;
  Tally.addi tally "solver.incremental" e.solved_incremental;
  (match s.cache with
  | Some c ->
      Tally.addi tally "cache.hits" c.hits;
      Tally.addi tally "cache.misses" c.misses
  | None -> ());
  tally_cases tally s.cases

let reproduce (b : bug) tally (report : Instrument.Report.t) =
  Check.attempt ();
  let result, stats =
    Spans.with_ "replay.reproduce"
      ~attrs:[ ("bug", Telemetry.Event.Str b.name) ]
      (fun () ->
        Bugrepro.Pipeline.Run.reproduce b.program.cfg ~prog:(Setup.prog b.program)
          ~plan:b.plan report)
  in
  tally_stats tally stats;
  Tally.time tally "replay" (Replay.Guided.elapsed result);
  match result with
  | Replay.Guided.Reproduced r ->
      Tally.addi tally "reproduced" 1;
      Tally.sample tally "replay.bug_s" r.elapsed_s;
      Check.require
        (Interp.Crash.equal_site r.crash report.crash)
        (b.name ^ ": replay reported a crash at another site");
      Check.require
        (crashes_at_site b report stats r.model)
        (b.name ^ ": the synthesised input does not crash at the reported site")
  | Replay.Guided.Not_reproduced r ->
      Check.fail
        (Printf.sprintf "%s: not reproduced within %d runs%s" b.name r.runs
           (if r.runs < b.program.cfg.replay_budget.max_runs then
              " (wall-clock safety net)"
            else ""))

let pass (env : env) tally =
  List.iter
    (fun b ->
      Calib.tick ();
      Tally.addi tally "bugs" 1;
      let r =
        Wl_field.field_run b.program ~plan_name:(method_name b.plan.meth)
          ~plan:b.plan b.scenario
      in
      Wl_field.tally_probes tally r;
      match Instrument.Report.of_field_run ~sc:b.scenario ~plan:b.plan r with
      | None -> Check.violation (b.name ^ ": the crash input did not crash")
      | Some report -> (
          match Wl_field.ship ~name:b.name tally report with
          | Some back -> reproduce b tally back
          | None -> ()))
    env

let fixed (env : env) =
  Setup.digest
    (List.map
       (fun b ->
         (b.name, Setup.config_digest b.program.cfg, Setup.plan_data b.plan,
          Setup.scenario_data b.scenario))
       env)
