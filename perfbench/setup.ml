(* Developer-side set-up shared by the workloads: pre-deployment analyses
   and instrumentation plans, on the shipped [Pipeline.Config.default].
   Every engine budget is decided by its run count; the wall-clock field
   is only a safety net, and hitting it is a failed operation. *)

module Config = Bugrepro.Pipeline.Config
module Tally = Check.Tally

let safety_net_s = 60.0
let runs_budget max_runs = { Concolic.Engine.max_runs; max_time_s = safety_net_s }

(* The bench harness's HC analysis budget, and a replay run cap far above
   the heaviest bug of the fixed set (mkdir under the dynamic plan). *)
let dynamic_runs = 150
let replay_runs = 20_000

let config =
  Config.default
  |> Config.with_budget ~dynamic:(runs_budget dynamic_runs)
       ~replay:(runs_budget replay_runs)

let program_attr name = [ ("program", Telemetry.Event.Str name) ]

(* [Pipeline.Run.analyze] with its two stages called directly, so that
   each gets its own span; the arguments are the ones it passes. *)
let analyze (c : Config.t) tally ~name ?test_scenario prog :
    Bugrepro.Pipeline.analysis =
  Calib.tick ();
  Spans.with_ "pipeline.analyze" ~attrs:(program_attr name) @@ fun () ->
  let dynamic =
    Option.map
      (fun sc ->
        Check.attempt ();
        let d =
          Spans.with_ "concolic.dynamic" ~attrs:(program_attr name) (fun () ->
              Concolic.Dynamic.analyze ~budget:c.dynamic_budget ~jobs:c.jobs
                ~incremental:c.incremental ~steal:c.steal sc)
        in
        if d.elapsed_s >= c.dynamic_budget.max_time_s then
          Check.fail (name ^ ": dynamic analysis hit the wall-clock safety net");
        Tally.addi tally "concolic.dynamic_runs" d.runs;
        d)
      test_scenario
  in
  let static =
    Spans.with_ "staticanalysis.analyze" ~attrs:(program_attr name) (fun () ->
        Staticanalysis.Static.analyze ~analyze_lib:c.analyze_lib
          ~refine:c.refine prog)
  in
  Tally.addi tally "staticanalysis.symbolic_labels" static.n_symbolic;
  { Bugrepro.Pipeline.prog; dynamic; static = Some static }

let plan (c : Config.t) ~name a meth =
  Spans.with_ "pipeline.plan" ~attrs:(program_attr name) (fun () ->
      Bugrepro.Pipeline.Run.plan c a meth)

type program = {
  name : string;
  cfg : Config.t;
  analysis : Bugrepro.Pipeline.analysis;
}

let prog p = p.analysis.Bugrepro.Pipeline.prog

(* µServer: the paper's §5.3 setup — library not analysed, dynamic
   analysis over the HC test workload (a fixed twelve-request mix). *)
let userver c tally =
  let cfg = Config.with_analyze_lib false c in
  let test =
    Workloads.Userver.scenario ~name:"userver-test-hc"
      (Workloads.Http_gen.workload ~seed:5 12)
  in
  let name = "userver" in
  {
    name;
    cfg;
    analysis =
      analyze cfg tally ~name ~test_scenario:test
        (Lazy.force Workloads.Userver.prog);
  }

(* diff: dynamic analysis on identical test files for two runs, the
   paper's low-coverage §5.4 setting that starves the dynamic method. *)
let diff c tally =
  let cfg = Config.with_budget ~dynamic:(runs_budget 2) c in
  let same = "alpha\nbeta\ngamma\n" in
  let test =
    Workloads.Diffutil.scenario ~name:"diff-analysis" ~file_a:same
      ~file_b:same ()
  in
  let name = "diff" in
  {
    name;
    cfg;
    analysis =
      analyze cfg tally ~name ~test_scenario:test
        (Lazy.force Workloads.Diffutil.prog);
  }

let coreutil c tally (e : Workloads.Coreutils.entry) =
  {
    name = e.util;
    cfg = c;
    analysis =
      analyze c tally ~name:e.util
        ~test_scenario:(Workloads.Coreutils.analysis_scenario e)
        (Lazy.force e.prog);
  }

(* Digest of plain data, for the self-test's check that the seed changes
   only the generated inputs. *)
let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Everything in a configuration but its telemetry handle. *)
let config_digest (c : Config.t) =
  digest
    ( (c.dynamic_budget, c.replay_budget, c.analyze_lib, c.refine, c.jobs),
      (c.log_syscalls, c.encode, c.suppression, c.solver_cache),
      (c.incremental, c.steal, c.seed, c.replay_max_steps) )

let scenario_data (sc : Concolic.Scenario.t) =
  (sc.name, sc.args, sc.world, sc.max_steps)

let plan_data (p : Instrument.Plan.t) = (Instrument.Methods.to_string p.meth, p.instrumented)
