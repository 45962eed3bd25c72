(* E1/E2 — the §5.1 microbenchmarks.

   E1: counter loop, none vs all-branches; reports the cost-model overhead
   (the paper measured 107% and 17 instructions per instrumented branch)
   plus bechamel wall-clock timings of the interpreter.

   E2: Listing 1 (fibonacci): the analysis-based methods instrument only
   the two symbolic option branches and show no noticeable overhead. *)

module Config = Bugrepro.Pipeline.Config
module Run = Bugrepro.Pipeline.Run

let field ~plan sc = Instrument.Field_run.run ~plan sc

let plan_of_nbranches n meth = Instrument.Plan.make ~nbranches:n meth

let e1 (c : Ctx.t) =
  Util.section ~id:"E1" ~paper:"§5.1 microbenchmark 1"
    "Counter-loop branch-logging overhead (none vs all branches)";
  let sc = Workloads.Microbench.counter_loop ~iterations:c.loop_iterations () in
  let n = Minic.Program.nbranches sc.prog in
  let none = field ~plan:(plan_of_nbranches n Instrument.Methods.No_instrumentation) sc in
  let all = field ~plan:(plan_of_nbranches n Instrument.Methods.All_branches) sc in
  let per_branch =
    if all.cost.logged_branches = 0 then 0.0
    else
      float_of_int (all.cost.instr - none.cost.instr)
      /. float_of_int all.cost.logged_branches
  in
  Util.table
    [
      [ "config"; "instructions"; "logged branches"; "cpu time (norm.)" ];
      [ "none"; string_of_int none.cost.instr; "0"; "100%" ];
      [
        "all branches";
        string_of_int all.cost.instr;
        string_of_int all.cost.logged_branches;
        Util.pct ~baseline:none.cost.instr all.cost.instr;
      ];
    ];
  Printf.printf
    "instrumentation cost: %.1f instructions per logged branch (paper: 17)\n"
    per_branch;
  Printf.printf "branch log: %d bytes, %d flush(es) of the 4 KB buffer\n"
    (Instrument.Branch_log.size_bytes all.branch_log)
    all.branch_log.flushes;
  (* wall-clock comparison with bechamel (smaller loop: bechamel repeats it) *)
  if not c.quick then begin
    let small = Workloads.Microbench.counter_loop ~iterations:5_000 () in
    let sn = Minic.Program.nbranches small.prog in
    let run plan () = ignore (field ~plan small) in
    let times =
      Bech.measure_ns
        [
          ("none", run (plan_of_nbranches sn Instrument.Methods.No_instrumentation));
          ("all", run (plan_of_nbranches sn Instrument.Methods.All_branches));
        ]
    in
    match List.assoc_opt "none" times, List.assoc_opt "all" times with
    | Some tn, Some ta ->
        Printf.printf
          "wall clock (bechamel, 5k iterations): none %.2f ms, all %.2f ms (%.0f%%)\n"
          (tn /. 1e6) (ta /. 1e6)
          (100.0 *. ta /. tn)
    | _ -> ()
  end

let e2 (c : Ctx.t) =
  ignore c;
  Util.section ~id:"E2" ~paper:"§5.1 microbenchmark 2"
    "Listing 1 (fibonacci): only the two option branches are symbolic";
  let sc = Workloads.Microbench.fibonacci ~option:"a" () in
  let prog = sc.prog in
  let analysis =
    Run.analyze
      (Config.with_budget
         ~dynamic:{ Concolic.Engine.max_runs = 30; max_time_s = 10.0 }
         Config.default)
      ~test_scenario:sc prog
  in
  let baseline =
    (Instrument.Field_run.run
       ~plan:
         (Instrument.Plan.make
            ~nbranches:(Minic.Program.nbranches prog)
            Instrument.Methods.No_instrumentation)
       sc)
      .cost
      .instr
  in
  let rows =
    List.map
      (fun meth ->
        let plan = Run.plan Config.default analysis meth in
        let r = Instrument.Field_run.run ~plan sc in
        [
          Instrument.Methods.to_string meth;
          string_of_int plan.n_instrumented;
          string_of_int r.branch_log.nbits;
          Util.pct ~baseline r.cost.instr;
        ])
      Instrument.Methods.instrumented
  in
  Util.table
    ([ "config"; "instrumented locations"; "bits logged"; "cpu time (norm.)" ]
    :: rows);
  print_endline
    "expected shape: the three analysis methods instrument 2 branch locations\n\
     and log 2 bits; only all-branches pays a visible overhead."
