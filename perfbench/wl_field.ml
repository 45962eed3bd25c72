(* Workload [field]: the user site.  Seeded benign µServer request streams
   and seeded diff file pairs run under the dyn+static plan and, as the
   baseline, without instrumentation; then the five µServer crash
   experiments run in the field and ship their reports over the wire.
   Interpreter, probes/codec and wire encoding do all the work; the
   solver, the engine and triage do none. *)

module Tally = Check.Tally
module Methods = Instrument.Methods

type scale = { streams : int; requests : int; pairs : int }

let full = { streams = 4; requests = 100; pairs = 4 }
let smoke = { streams = 1; requests = 10; pairs = 1 }

type input = {
  program : Setup.program;
  plan : Instrument.Plan.t;
  baseline : Instrument.Plan.t;
  scenario : Concolic.Scenario.t;
  requests : int;  (** HTTP requests served; 0 for a diff invocation *)
}

type env = {
  benign : input list;
  crashes : (Setup.program * Instrument.Plan.t * Concolic.Scenario.t) list;
}

(* Inputs generated from the seed: only the request streams and the file
   pairs depend on it. *)
type inputs = { streams : string list list; pairs : (string * string) list }

let inputs (s : scale) ~seed =
  let rng = Osmodel.Rng.create seed in
  {
    streams =
      List.init s.streams (fun i ->
          Workloads.Http_gen.workload ~seed:(Osmodel.Rng.derive rng ~index:i)
            s.requests);
    pairs =
      List.init s.pairs (fun i ->
          Workloads.Diffutil.file_pair
            ~seed:(Osmodel.Rng.derive rng ~index:(1000 + i))
            ~lines:20 ~width:20 ~edits:4 ());
  }

let setup (c : Setup.Config.t) (inp : inputs) tally =
  let userver = Setup.userver c tally and diff = Setup.diff c tally in
  let plans (p : Setup.program) =
    ( Setup.plan p.cfg ~name:p.name p.analysis Methods.Dynamic_static,
      Setup.plan p.cfg ~name:p.name p.analysis Methods.No_instrumentation )
  in
  let (us_plan, us_base), (diff_plan, diff_base) = (plans userver, plans diff) in
  let streams =
    List.mapi
      (fun i reqs ->
        {
          program = userver;
          plan = us_plan;
          baseline = us_base;
          scenario =
            Workloads.Userver.scenario
              ~name:(Printf.sprintf "userver-stream%d" i)
              reqs;
          requests = List.length reqs;
        })
      inp.streams
  in
  let pairs =
    List.mapi
      (fun i (file_a, file_b) ->
        {
          program = diff;
          plan = diff_plan;
          baseline = diff_base;
          scenario =
            Workloads.Diffutil.scenario
              ~name:(Printf.sprintf "diff-pair%d" i)
              ~snapshot:false ~file_a ~file_b ();
          requests = 0;
        })
      inp.pairs
  in
  let crashes =
    List.map
      (fun e -> (userver, us_plan, Workloads.Userver.experiment_scenario e))
      Workloads.Userver.experiments
  in
  { benign = streams @ pairs; crashes }

let field_run (p : Setup.program) ~plan_name ~plan sc =
  Spans.with_ "instrument.field_run"
    ~attrs:
      [
        ("program", Telemetry.Event.Str p.name);
        ("plan", Telemetry.Event.Str plan_name);
      ]
    (fun () -> Bugrepro.Pipeline.Run.field_run p.cfg ~plan sc)

(* Counters of an instrumented field run. *)
let tally_probes tally (r : Instrument.Field_run.result) =
  Tally.addi tally "instrument.logged_bits" r.cost.logged_branches;
  Tally.addi tally "instrument.encoded_bytes"
    (match r.encoded_log with
    | Some enc -> Instrument.Codec.size_bytes enc
    | None -> 0);
  Tally.addi tally "instrument.elided" r.n_elided

(* Serialize a report and read it back with the strict reader; the
   round trip must reproduce the wire text exactly. *)
let ship ~name tally (report : Instrument.Report.t) =
  let wire =
    Spans.with_ "wire.serialize" (fun () -> Instrument.Wire.serialize report)
  in
  Tally.addi tally "report_bytes.sum" (String.length wire);
  Tally.addi tally "report_bytes.n" 1;
  match
    Spans.with_ "wire.deserialize_v" (fun () ->
        Instrument.Wire.deserialize_v wire)
  with
  | Error e ->
      Check.violation
        (name ^ ": strict reader rejected a fresh report: "
        ^ Instrument.Wire.error_to_string e);
      None
  | Ok back ->
      Check.require
        (String.equal (Instrument.Wire.serialize back) wire)
        (name ^ ": wire round trip changed the report");
      Some back

let pass (env : env) tally =
  List.iter
    (fun inp ->
      Calib.tick ();
      Check.attempt ();
      let sc = inp.scenario in
      let r, wall =
        Sample.time (fun () ->
            field_run inp.program ~plan_name:"dyn+static" ~plan:inp.plan sc)
      in
      let b, base_wall =
        Sample.time (fun () ->
            field_run inp.program ~plan_name:"none" ~plan:inp.baseline sc)
      in
      (match r.outcome with
      | Interp.Crash.Exit _ -> ()
      | o ->
          Check.violation
            (sc.name ^ ": benign input ended with "
            ^ Interp.Crash.outcome_to_string o));
      Check.require
        (r.outcome = b.outcome && String.equal r.output b.output)
        (sc.name ^ ": instrumentation changed the program's behaviour");
      Tally.time tally "instrumented" wall;
      Tally.time tally "baseline" base_wall;
      Tally.addi tally "instr.instrumented" r.cost.instr;
      Tally.addi tally "instr.baseline" b.cost.instr;
      Tally.addi tally "interp.steps" b.steps;
      Tally.addi tally "interp.instr" b.cost.instr;
      Tally.addi tally "items" (max 1 inp.requests);
      if inp.requests > 0 then begin
        Tally.addi tally "requests" inp.requests;
        Tally.addi tally "log_bytes" (Instrument.Field_run.storage_bytes r)
      end;
      tally_probes tally r)
    env.benign;
  List.iter
    (fun ((p : Setup.program), plan, sc) ->
      Calib.tick ();
      Check.attempt ();
      let r = field_run p ~plan_name:"dyn+static" ~plan sc in
      tally_probes tally r;
      match Instrument.Report.of_field_run ~sc ~plan r with
      | None -> Check.violation (sc.Concolic.Scenario.name ^ ": did not crash")
      | Some report -> ignore (ship ~name:sc.name tally report))
    env.crashes

let seeded (env : env) =
  Setup.digest (List.map (fun i -> Setup.scenario_data i.scenario) env.benign)

let fixed (env : env) =
  Setup.digest
    ( List.map
        (fun ((p : Setup.program), plan, sc) ->
          (p.name, Setup.config_digest p.cfg, Setup.plan_data plan,
           Setup.scenario_data sc))
        env.crashes,
      List.map
        (fun i ->
          (Setup.config_digest i.program.cfg, Setup.plan_data i.plan,
           Setup.plan_data i.baseline))
        env.benign )
