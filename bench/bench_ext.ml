(* A3/A4/A5/A6 — the §6/§4 extensions quantified:

   A3: checkpointing for long-running applications (§6) — storage shipped
   and replay time when the branch log restarts at each checkpoint.

   A4: branch-log compression for transfer (§5.3 observes 10-20x with gzip).

   A5: the branch-prediction logging alternative §4 rejects — mispredicted
   branches must carry a 32-bit location, so the "savings" usually are not.

   A6: multithreading (§6) — a check-then-act race whose crash depends on
   the interleaving; replay with the recorded thread schedule vs without. *)

module Config = Bugrepro.Pipeline.Config
module Run = Bugrepro.Pipeline.Run

let a3 (c : Ctx.t) =
  Util.section ~id:"A3" ~paper:"§6 (long-running applications)"
    "Checkpointing: log truncation and replay-from-checkpoint";
  let n_reqs = max 12 (c.requests / 8) in
  let reqs =
    Workloads.Http_gen.workload ~seed:3 n_reqs
    @ (Workloads.Userver.experiment 1).requests
  in
  let prog = Lazy.force Workloads.Userver.checkpointed_prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let sc = Workloads.Userver.checkpointed_scenario reqs in
  let r = Checkpoint.Cfield.run ~plan sc in
  (match Checkpoint.Cfield.report_of ~sc ~plan r with
  | Some (report, Some snapshot) ->
      let (result, _), dt =
        Util.time_call (fun () ->
            Checkpoint.Creplay.reproduce
              ~budget:
                { (Ctx.replay_budget c) with max_time_s = 6.0 *. c.replay_time_s }
              ~prog ~plan ~snapshot report)
      in
      Util.table
        [
          [ "metric"; "without checkpointing"; "with checkpointing" ];
          [
            "branch bits shipped";
            string_of_int r.total_bits;
            string_of_int r.branch_log.nbits;
          ];
          [
            "snapshot bytes";
            "0";
            string_of_int (Checkpoint.Snapshot.size_bytes snapshot);
          ];
          [ "checkpoints taken"; "0"; string_of_int r.epochs ];
          [
            "replay";
            "(full-log baseline: see E9 exp 1)";
            (match result with
            | Replay.Guided.Reproduced rr ->
                Printf.sprintf "reproduced in %s (%d runs)" (Util.seconds dt)
                  rr.runs
            | Replay.Guided.Not_reproduced _ -> Util.infinity_symbol);
          ];
        ];
      Printf.printf
        "log truncation: %.0f%% of the bits never leave the user site; replay\n\
         additionally searches for a consistent pre-checkpoint global state\n\
         (restored cells are symbolic, per §6).\n"
        (100.0
        *. float_of_int r.discarded_bits
        /. float_of_int (max r.total_bits 1))
  | _ -> print_endline "field run did not produce a checkpointed report")

let a4 (c : Ctx.t) =
  Util.section ~id:"A4" ~paper:"§5.3 (compression)"
    "Branch-log compression ratios (paper: 10-20x with gzip)";
  let cases =
    [
      ( "counter loop",
        Workloads.Microbench.counter_loop ~iterations:(c.loop_iterations / 4) () );
      ( "µServer, static workload",
        (* the paper's httperf setup repeats one request: per-request branch
           patterns recur and LZ compression thrives *)
        Workloads.Userver.scenario ~name:"a4s"
          (List.init (max 50 (c.requests / 2)) (fun _ -> Workloads.Http_gen.tiny_get)) );
      ( "µServer, mixed workload",
        Workloads.Userver.scenario ~name:"a4m"
          (Workloads.Http_gen.workload (max 20 (c.requests / 5))) );
      ( "diff",
        let a_txt, b_txt =
          Workloads.Diffutil.file_pair ~seed:5 ~lines:16 ~width:16 ~edits:3 ()
        in
        Workloads.Diffutil.scenario ~name:"a4-diff" ~snapshot:false ~file_a:a_txt
          ~file_b:b_txt () );
    ]
  in
  let rows =
    List.map
      (fun (name, sc) ->
        let plan =
          Instrument.Plan.make
            ~nbranches:(Minic.Program.nbranches sc.Concolic.Scenario.prog)
            Instrument.Methods.All_branches
        in
        let r = Instrument.Field_run.run ~plan sc in
        let comp = Instrument.Compress.compress r.branch_log in
        [
          name;
          string_of_int (Instrument.Branch_log.size_bytes r.branch_log);
          string_of_int (Instrument.Compress.size_bytes comp);
          Printf.sprintf "%.1fx" (Instrument.Compress.ratio r.branch_log comp);
        ])
      cases
  in
  Util.table ([ "workload"; "raw bytes"; "compressed"; "ratio" ] :: rows)

let a5 (c : Ctx.t) =
  Util.section ~id:"A5" ~paper:"§4 (rejected design)"
    "Branch-prediction logging vs one bit per branch";
  let sc =
    Workloads.Userver.scenario ~name:"a5"
      (Workloads.Http_gen.workload (max 20 (c.requests / 5)))
  in
  let nb = Minic.Program.nbranches sc.prog in
  let plan = Instrument.Plan.make ~nbranches:nb Instrument.Methods.All_branches in
  let rows =
    List.map
      (fun scheme ->
        let p = Instrument.Predictor.create ~nbranches:nb scheme in
        let hooks = Instrument.Predictor.hooks p ~plan in
        let world, handle = Osmodel.World.kernel sc.world in
        ignore world;
        let (_ : Interp.Eval.result) =
          Interp.Eval.run sc.prog
            {
              Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
              kernel = Interp.Kernel.of_world handle;
              hooks;
              max_steps = sc.max_steps;
      scheduler = None;
            }
        in
        [
          Instrument.Predictor.scheme_to_string scheme;
          string_of_int p.executions;
          Printf.sprintf "%.1f%%" (100.0 *. Instrument.Predictor.misprediction_rate p);
          string_of_int (Instrument.Predictor.log_size_bytes p);
        ])
      Instrument.Predictor.[ Last_direction; Two_bit ]
  in
  let r = Instrument.Field_run.run ~plan sc in
  let bit_bytes = Instrument.Branch_log.size_bytes r.branch_log in
  Util.table
    ([ "predictor"; "branch executions"; "mispredictions"; "log bytes (32b/miss)" ]
     :: rows
    @ [ [ "1 bit per branch (ours)"; string_of_int r.branch_log.nbits; "-";
          string_of_int bit_bytes ] ]);
  print_endline
    "expected shape: per-misprediction entries carry a 32-bit location, so\n\
     the prediction scheme only wins below a ~3% misprediction rate — which\n\
     input-dependent parser branches do not reach (the paper's argument for\n\
     rejecting it)."

let a6 (c : Ctx.t) =
  Util.section ~id:"A6" ~paper:"§6 (multithreading)"
    "Racy multithreaded workload: replay with and without the schedule log";
  let sc = Workloads.Mtrace.scenario ~seed:3 () in
  let prog = sc.prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let _, report = Run.field_run_report Config.default ~plan sc in
  match report with
  | None -> print_endline "the race did not fire under the field scheduler"
  | Some report ->
      let sched_entries =
        match report.schedule_log with
        | Some l -> Instrument.Schedule_log.length l
        | None -> 0
      in
      let replay rep =
        let result, stats =
          Run.reproduce (Ctx.replay_config c) ~prog ~plan rep
        in
        ( Util.verdict_string (Util.replay_verdict result),
          stats.engine.runs )
      in
      let with_v, with_runs = replay report in
      let without_v, without_runs =
        replay { report with Instrument.Report.schedule_log = None }
      in
      Util.table
        [
          [ "configuration"; "replay"; "runs" ];
          [
            Printf.sprintf "with schedule log (%d entries, %d bytes)" sched_entries
              sched_entries;
            with_v;
            string_of_int with_runs;
          ];
          [ "without schedule log"; without_v; string_of_int without_runs ];
        ];
      print_endline
        "expected shape: with the recorded schedule the interleaving-dependent\n\
         crash replays immediately; without it the branch log alone cannot pin\n\
         the interleaving (the paper's argument for recording thread order)."
