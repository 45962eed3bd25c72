(* Tests for the concolic machinery: path recording, the exploration
   engine, dynamic labelling, and symbolic-input plumbing. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let compile src = Workloads.Runtime_lib.link ~name:"t" src

let scenario ?(args = []) ?world src =
  let prog = compile src in
  Concolic.Scenario.make ~name:"t" ~args
    ?world:(Option.map Fun.id world)
    prog

let budget runs = { Concolic.Engine.max_runs = runs; max_time_s = 10.0 }

(* ------------------------------------------------------------------ *)
(* Path recording *)

let test_path_branch_constraints () =
  let t = Concolic.Path.create () in
  let sym = Solver.Expr.(Binop (Lt, Var 0, Const 5)) in
  Concolic.Path.record_branch t ~bid:3 ~taken:true sym;
  Concolic.Path.record_branch t ~bid:4 ~taken:false sym;
  match Concolic.Path.entries t with
  | [ e1; e2 ] ->
      check_bool "taken keeps shape" true
        (e1.cons = Solver.Expr.(Binop (Lt, Var 0, Const 5)));
      check_bool "not-taken negates" true
        (e2.cons = Solver.Expr.(Binop (Ge, Var 0, Const 5)));
      check_bool "bids recorded" true (e1.bid = Some 3 && e2.bid = Some 4)
  | _ -> Alcotest.fail "expected two entries"

let test_path_concretize_entry () =
  let t = Concolic.Path.create () in
  Concolic.Path.record_concretize t (Solver.Expr.Var 7) 42;
  match Concolic.Path.entries t with
  | [ e ] ->
      check_bool "not negatable" false e.negatable;
      check_bool "no bid" true (e.bid = None)
  | _ -> Alcotest.fail "expected one entry"

(* ------------------------------------------------------------------ *)
(* Dynamic labelling *)

let test_dynamic_labels_simple () =
  let sc =
    scenario ~args:[ "x" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'k') { return 1; }\n\
      \  if (3 < 5) { return 2; }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 50) sc in
  let prog = sc.prog in
  let label_line line =
    let l = ref Minic.Label.Unvisited in
    Array.iter
      (fun (b : Minic.Number.info) -> if b.bloc.line = line then l := r.labels.(b.bid))
      prog.branches;
    !l
  in
  check_bool "input branch symbolic" true (label_line 4 = Minic.Label.Symbolic);
  check_bool "const branch concrete" true (label_line 5 = Minic.Label.Concrete)

let test_dynamic_explores_both_sides () =
  (* exploration must find the rare 'Z' path and thereby visit the nested
     branch *)
  let sc =
    scenario ~args:[ "a" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'Z') {\n\
      \    if (b[1] == 'Q') { return 9; }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 50) sc in
  (* the linked runtime library has branches this program never calls, so
     count only application branch locations *)
  let unvisited_app =
    List.length
      (List.filter
         (fun bid -> r.labels.(bid) = Minic.Label.Unvisited)
         (Minic.Program.app_branch_ids sc.prog))
  in
  check_int "all app branches visited" 0 unvisited_app

let test_dynamic_unvisited_with_tiny_budget () =
  let sc =
    scenario ~args:[ "a" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'Z') {\n\
      \    if (b[1] == 'Q') {\n\
      \      if (b[2] == 'W') { return 9; }\n\
      \    }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  (* a single run cannot see the nested branches *)
  let r = Concolic.Dynamic.analyze ~budget:(budget 1) sc in
  check_bool "some branches unvisited" true
    (Minic.Label.count r.labels Minic.Label.Unvisited > 0)

let test_dynamic_coverage_monotone_in_budget () =
  let e = Workloads.Coreutils.find "mkdir" in
  let sc = Workloads.Coreutils.analysis_scenario e in
  let r1 = Concolic.Dynamic.analyze ~budget:(budget 1) sc in
  let r2 = Concolic.Dynamic.analyze ~budget:(budget 120) sc in
  check_bool "higher budget, >= coverage" true (r2.coverage >= r1.coverage);
  check_bool "higher budget finds more symbolic branches" true
    (Minic.Label.count r2.labels Minic.Label.Symbolic
    >= Minic.Label.count r1.labels Minic.Label.Symbolic)

let test_label_observer_concurrent () =
  (* round [i]: one domain observes branch [i] concretely in a burst while
     the other observes it symbolically once, at a varying point of the
     burst.  The sticky rule must leave every label [Symbolic]: an
     unserialized read-then-write lets a [Concrete] land after it. *)
  let rounds = 2_000 in
  let labels = Minic.Label.make ~nbranches:rounds Minic.Label.Unvisited in
  let observe = Concolic.Dynamic.label_observer ~jobs:2 labels in
  let started = Atomic.make (-1) and finished = Atomic.make (-1) in
  let concrete =
    Domain.spawn (fun () ->
        for bid = 0 to rounds - 1 do
          while Atomic.get started < bid do Domain.cpu_relax () done;
          for _ = 1 to 32 do observe bid false done;
          Atomic.set finished bid
        done)
  in
  for bid = 0 to rounds - 1 do
    Atomic.set started bid;
    for _ = 1 to bid mod 32 do Domain.cpu_relax () done;
    observe bid true;
    while Atomic.get finished < bid do Domain.cpu_relax () done
  done;
  Domain.join concrete;
  check_int "every label symbolic" rounds
    (Minic.Label.count labels Minic.Label.Symbolic)

(* ------------------------------------------------------------------ *)
(* Engine behaviour *)

let test_engine_finds_deep_crash () =
  (* engine must synthesise the 3-byte magic word *)
  let sc =
    scenario ~args:[ "aaa" ]
      "int main() {\n\
      \  int b[8];\n\
      \  arg(0, b, 8);\n\
      \  if (b[0] == 'B') {\n\
      \    if (b[1] == 'U') {\n\
      \      if (b[2] == 'G') { crash(); }\n\
      \    }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, found =
    Concolic.Engine.explore ~vars ~budget:(budget 100) ~run
      ~should_stop:(fun _ r ->
        match r.outcome with Interp.Crash.Crash _ -> true | _ -> false)
      ()
  in
  check_bool "crash found" true (found <> None);
  check_bool "took a few runs" true (stats.runs > 1)

let test_engine_respects_run_budget () =
  let sc =
    scenario ~args:[ "aaaa" ]
      "int main() {\n\
      \  int b[8];\n\
      \  int i;\n\
      \  int n = 0;\n\
      \  arg(0, b, 8);\n\
      \  for (i = 0; i < 4; i = i + 1) { if (b[i] == 'q') { n = n + 1; } }\n\
      \  return n;\n\
       }"
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, _ = Concolic.Engine.explore ~vars ~budget:(budget 5) ~run () in
  check_bool "run budget respected" true (stats.runs <= 5)

let test_engine_model_drives_next_run () =
  (* the model produced by negating b[0] == 'x' must actually flip the
     branch in the next run: verify via observed outcomes *)
  let sc =
    scenario ~args:[ "x" ]
      "int main() { int b[4]; arg(0, b, 4); if (b[0] == 'x') { return 1; } return 2; }"
  in
  let vars = Solver.Symvars.create () in
  let outcomes = ref [] in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let on_run _ (r : Concolic.Engine.run_result) =
    outcomes := r.outcome :: !outcomes
  in
  let _ = Concolic.Engine.explore ~vars ~budget:(budget 10) ~run ~on_run () in
  let exits =
    List.filter_map
      (function Interp.Crash.Exit n -> Some n | _ -> None)
      !outcomes
  in
  check_bool "both paths executed" true (List.mem 1 exits && List.mem 2 exits)

let test_engine_drained_frontier_terminates () =
  (* a branch-free program seeds nothing into the frontier: the engine
     must retire after its single initial run — a drained frontier is a
     clean stop (the pop is matched, not [Option.get]-ed), never a crash *)
  let sc = scenario ~args:[ "a" ] "int main() { return 0; }" in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, found = Concolic.Engine.explore ~vars ~budget:(budget 100) ~run () in
  check_bool "nothing to find" true (found = None);
  check_int "exactly the initial run" 1 stats.runs;
  check_bool "clean exhaustion, not a timeout" false stats.timed_out

(* ------------------------------------------------------------------ *)
(* Stream data symbolication *)

let test_stream_bytes_symbolic () =
  let world =
    { Osmodel.World.default_config with files = [ ("f", "AB") ] }
  in
  let sc =
    scenario ~world
      "int main() {\n\
      \  int b[8];\n\
      \  int fd = open(\"f\", 0);\n\
      \  read(fd, b, 8);\n\
      \  if (b[0] == 'A') { crash(); }\n\
      \  return 0;\n\
       }"
  in
  let r = Concolic.Dynamic.analyze ~budget:(budget 20) sc in
  let prog = sc.prog in
  let ok = ref false in
  Array.iter
    (fun (b : Minic.Number.info) ->
      if b.bloc.line = 5 && r.labels.(b.bid) = Minic.Label.Symbolic then ok := true)
    prog.branches;
  check_bool "file byte branch symbolic" true !ok;
  (* and the registry knows the stream variable by name *)
  check_bool "stream var registered" true
    (Solver.Symvars.find_by_name r.vars "file:f[0]" <> None)

(* ------------------------------------------------------------------ *)
(* Concrete/concolic agreement: shadowing values symbolically must never
   change concrete semantics *)

let agreement_sources =
  [
    ("arith", "int main() { int b[8]; arg(0, b, 8); return (b[0] * 7 + b[1]) % 100; }", [ "Kx" ]);
    ( "loops",
      "int main() { int b[16]; int i; int s = 0; arg(0, b, 16);\n\
       for (i = 0; i < 8; i = i + 1) { if (b[i] > 'm') { s = s + i; } } return s; }",
      [ "azbycxdw" ] );
    ( "lib",
      "int main() { int b[32]; arg(0, b, 32); if (str_eq(b, \"magic\")) { return 42; } return strlen(b); }",
      [ "magic" ] );
    ( "io",
      "int main() { int b[16]; int fd = open(\"f\", 0); int n = read(fd, b, 16); return n + b[0]; }",
      [] );
  ]

let test_concrete_concolic_agreement () =
  List.iter
    (fun (name, src, args) ->
      let prog = Workloads.Runtime_lib.link ~name src in
      let world =
        { Osmodel.World.default_config with files = [ ("f", "QRS") ] }
      in
      let sc = Concolic.Scenario.make ~name ~args ~world prog in
      (* concrete run *)
      let _w, handle = Osmodel.World.kernel world in
      let concrete =
        Interp.Eval.run prog
          {
            Interp.Eval.inputs = Interp.Inputs.of_strings args;
            kernel = Interp.Kernel.of_world handle;
            hooks = Interp.Eval.no_hooks;
            max_steps = 1_000_000;
            scheduler = None;
          }
      in
      (* concolic run with an empty model: same concrete inputs, with
         symbolic shadows riding along *)
      let vars = Solver.Symvars.create () in
      let run =
        Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
      in
      let concolic = run Solver.Model.empty in
      check_bool
        (Printf.sprintf "%s: same outcome" name)
        true
        (Interp.Crash.outcome_to_string concrete.outcome
        = Interp.Crash.outcome_to_string concolic.outcome))
    agreement_sources

(* path constraints of the concolic run are satisfied by the inputs used *)
let test_path_constraints_hold_on_own_input () =
  let src =
    "int main() { int b[8]; arg(0, b, 8); if (b[0] == 'q') { if (b[1] < 'm') { return 1; } } return 0; }"
  in
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "qa" ] prog in
  let vars = Solver.Symvars.create () in
  let observed = ref Solver.Model.empty in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  let r = run Solver.Model.empty in
  observed := r.observed;
  List.iter
    (fun (e : Concolic.Path.entry) ->
      check_bool "constraint holds on own input" true
        (Solver.Model.satisfies !observed e.cons))
    r.trace

let test_engine_strategies_explore_same_space () =
  (* DFS and BFS must both find the magic-word crash on a small program *)
  let src =
    "int main() { int b[4]; arg(0, b, 4); if (b[0] == 'Z') { if (b[1] == 'Q') { crash(); } } return 0; }"
  in
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "ab" ] prog in
  List.iter
    (fun strategy ->
      let vars = Solver.Symvars.create () in
      let run =
        Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
      in
      let _, found =
        Concolic.Engine.explore ~vars ~budget:(budget 100) ~strategy ~run
          ~should_stop:(fun _ r ->
            match r.outcome with Interp.Crash.Crash _ -> true | _ -> false)
          ()
      in
      check_bool "strategy finds the crash" true (found <> None))
    [ Concolic.Engine.Dfs; Concolic.Engine.Bfs ]

(* ------------------------------------------------------------------ *)
(* Parallel exploration determinism: an exhaustive exploration (no
   should_stop, generous budget) of a program whose crash sites are guarded
   purely by input branch constraints is confluent — the *set* of crash
   outcomes cannot depend on worker scheduling, only the discovery order
   can.  Run the same seed corpus at jobs=1 and jobs=4 and compare sets. *)

let crash_corpus_src =
  "int main() {\n\
  \  int b[8];\n\
  \  arg(0, b, 8);\n\
  \  if (b[0] == 'A') { if (b[1] == 'x') { crash(); } return 1; }\n\
  \  if (b[0] == 'B') { if (b[2] > 'm') { crash(); } return 2; }\n\
  \  if (b[0] == 'C') { crash(); }\n\
  \  return 0;\n\
   }"

let explore_crashes ?(steal = true) ?incr ~jobs src =
  let prog = Workloads.Runtime_lib.link ~name:"t" src in
  let sc = Concolic.Scenario.make ~name:"t" ~args:[ "aaa" ] prog in
  let vars = Solver.Symvars.create () in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  (* on_run is called with the frontier lock held, so a plain ref is fine *)
  let crashes = ref [] in
  let on_run _ (r : Concolic.Engine.run_result) =
    match r.outcome with
    | Interp.Crash.Crash c ->
        let s = Interp.Crash.to_string c in
        if not (List.mem s !crashes) then crashes := s :: !crashes
    | _ -> ()
  in
  let cache = Solver.Cache.create () in
  let stats, _ =
    Concolic.Engine.explore ~vars ~budget:(budget 400) ~jobs ~cache ?incr
      ~steal ~run ~on_run ()
  in
  (List.sort compare !crashes, stats)

let test_parallel_determinism () =
  let seq, _ = explore_crashes ~jobs:1 crash_corpus_src in
  let par, _ = explore_crashes ~jobs:4 crash_corpus_src in
  check_bool "found some crash sites" true (List.length seq >= 3);
  Alcotest.(check (list string)) "jobs=1 and jobs=4 find the same crash set" seq par

let test_parallel_determinism_steal_matrix () =
  (* the exhausted frontier's crash set is invariant across the frontier
     discipline (sharded deques + stealing vs single queue) and the
     incremental solver, at any worker count *)
  let seq, _ = explore_crashes ~jobs:1 crash_corpus_src in
  check_bool "found some crash sites" true (List.length seq >= 3);
  List.iter
    (fun (jobs, steal, incremental) ->
      let incr = if incremental then Some (Solver.Incr.create ()) else None in
      let found, stats = explore_crashes ~jobs ~steal ?incr crash_corpus_src in
      let tag =
        Printf.sprintf "jobs=%d steal=%b incr=%b" jobs steal incremental
      in
      Alcotest.(check (list string)) (tag ^ " crash set") seq found;
      check_bool (tag ^ " frontier accounting") true
        (stats.sat + stats.unsat + stats.unknown + stats.core_pruned
        = stats.forks))
    [
      (1, true, true);
      (4, true, false);
      (4, false, false);
      (4, true, true);
      (4, false, true);
    ]

let test_steal_counters_and_worker_runs () =
  (* 4-domain stress on the widest frontier: the Atomic accumulators must
     reconcile — per-worker run counts sum to the total, steals only ever
     counted when the sharded frontier is on *)
  List.iter
    (fun (jobs, steal) ->
      let _, stats = explore_crashes ~jobs ~steal crash_corpus_src in
      let tag = Printf.sprintf "jobs=%d steal=%b" jobs steal in
      check_int (tag ^ " worker_runs length") jobs
        (Array.length stats.worker_runs);
      check_int (tag ^ " worker_runs sums to runs") stats.runs
        (Array.fold_left ( + ) 0 stats.worker_runs);
      check_bool (tag ^ " pending_peak positive") true (stats.pending_peak >= 1);
      if jobs = 1 || not steal then
        check_int (tag ^ " no steals without sharded deques") 0 stats.steals
      else check_bool (tag ^ " steal counter sane") true (stats.steals >= 0))
    [ (1, true); (4, true); (4, false) ]

let test_core_pruning_spares_sat_siblings () =
  (* with the incremental solver on, every pending is accounted for
     (sat + unsat + unknown + core_pruned = forks on an exhausted
     frontier) and pruning never loses a crash the plain engine finds *)
  let plain, pstats = explore_crashes ~jobs:1 crash_corpus_src in
  let incr = Solver.Incr.create () in
  let pruned, stats = explore_crashes ~jobs:1 ~incr crash_corpus_src in
  check_bool "frontier exhausted" true (pstats.runs < 400 && stats.runs < 400);
  Alcotest.(check (list string))
    "crash set unchanged by core pruning" plain pruned;
  check_int "pruned + solved = forks"
    stats.forks
    (stats.sat + stats.unsat + stats.unknown + stats.core_pruned)

let test_parallel_respects_run_budget () =
  let sc =
    scenario ~args:[ "aaaa" ]
      "int main() {\n\
      \  int b[8];\n\
      \  int i;\n\
      \  int n = 0;\n\
      \  arg(0, b, 8);\n\
      \  for (i = 0; i < 4; i = i + 1) { if (b[i] == 'q') { n = n + 1; } }\n\
      \  return n;\n\
       }"
  in
  let vars = Solver.Symvars.create () in
  let run =
    Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
  in
  let stats, _ =
    Concolic.Engine.explore ~vars ~budget:(budget 5) ~jobs:4 ~run ()
  in
  check_bool "run budget exact under parallel pool" true (stats.runs <= 5)

let test_run_budget_exact_everywhere () =
  (* every run is reserved against [max_runs], the seeding run included,
     whatever the worker count and frontier discipline *)
  let sc = scenario ~args:[ "aaa" ] crash_corpus_src in
  List.iter
    (fun (max_runs, jobs, steal) ->
      let vars = Solver.Symvars.create () in
      let run =
        Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ())
      in
      let stats, _ =
        Concolic.Engine.explore ~vars ~budget:(budget max_runs) ~jobs ~steal
          ~run ()
      in
      let tag = Printf.sprintf "max_runs=%d jobs=%d steal=%b" max_runs jobs steal in
      check_bool (tag ^ " runs <= max_runs") true (stats.runs <= max_runs);
      check_int (tag ^ " worker_runs sums to runs") stats.runs
        (Array.fold_left ( + ) 0 stats.worker_runs))
    (List.concat_map
       (fun max_runs ->
         List.concat_map
           (fun jobs -> [ (max_runs, jobs, true); (max_runs, jobs, false) ])
           [ 1; 4 ])
       [ 0; 1; 5 ])

(* ------------------------------------------------------------------ *)
(* Engine golden

   Single-worker explorations of the coreutils analysis and crash
   scenarios (cut by the run budget) and of the crash corpus (drained, and
   stopped at its first crash), under both strategies and three solver
   set-ups (plain, cache, cache + incremental), fingerprinted: every run's
   model bindings and outcome in visit order, digested, plus every [stats]
   field but the wall clock.  The expected lines were captured before the
   three exploration loops were folded into one; the [jobs:1] search order
   must reproduce them exactly. *)

let engine_fingerprint ?should_stop name sc strategy solver =
  let vars = Solver.Symvars.create () in
  let run = Concolic.Dynamic.make_run sc ~vars ~on_branch_observed:(fun _ _ -> ()) in
  let log = Buffer.create 4096 in
  let on_run model (r : Concolic.Engine.run_result) =
    List.iter
      (fun (id, v) -> Printf.bprintf log "%d=%d," id v)
      (Solver.Model.bindings model);
    Printf.bprintf log "%s;" (Interp.Crash.outcome_to_string r.outcome)
  in
  let cache = if solver = "plain" then None else Some (Solver.Cache.create ()) in
  let incr = if solver = "incr" then Some (Solver.Incr.create ()) else None in
  let s, _ =
    Concolic.Engine.explore ~vars
      ~budget:{ Concolic.Engine.max_runs = 150; max_time_s = 600.0 }
      ~strategy ~jobs:1 ?cache ?incr ~run ?should_stop ~on_run ()
  in
  Printf.sprintf
    "%s %s %s | runs %d sat %d unsat %d unknown %d peak %d forks %d \
     pruned %d incremental %d calls %d steals %d workers %s timed_out %b | %s"
    name
    (match strategy with Concolic.Engine.Dfs -> "dfs" | Bfs -> "bfs")
    solver s.runs s.sat s.unsat s.unknown s.pending_peak s.forks s.core_pruned
    s.solved_incremental s.solver_calls s.steals
    (String.concat "+" (Array.to_list (Array.map string_of_int s.worker_runs)))
    s.timed_out
    (Digest.to_hex (Digest.string (Buffer.contents log)))

let crashes _ (r : Concolic.Engine.run_result) =
  match r.outcome with Interp.Crash.Crash _ -> true | _ -> false

let engine_golden_runs () =
  let corpus = scenario ~args:[ "aaa" ] crash_corpus_src in
  let scenarios =
    List.concat_map
      (fun (e : Workloads.Coreutils.entry) ->
        [
          (e.util ^ "/analysis", None, Workloads.Coreutils.analysis_scenario e);
          (e.util ^ "/crash", None, Workloads.Coreutils.crash_scenario e);
        ])
      Workloads.Coreutils.catalog
    @ [ ("corpus/drain", None, corpus); ("corpus/stop", Some crashes, corpus) ]
  in
  List.concat_map
    (fun (name, should_stop, sc) ->
      List.concat_map
        (fun strategy ->
          List.map
            (engine_fingerprint ?should_stop name sc strategy)
            [ "plain"; "cache"; "incr" ])
        [ Concolic.Engine.Dfs; Concolic.Engine.Bfs ])
    scenarios

let engine_golden_expected =
  [
    "mkdir/analysis dfs plain | runs 150 sat 149 unsat 84 unknown 0 peak 55 forks 272 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 4daa738febf1d355458a0e52b9ca2dec";
    "mkdir/analysis dfs cache | runs 150 sat 149 unsat 84 unknown 0 peak 55 forks 272 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 4daa738febf1d355458a0e52b9ca2dec";
    "mkdir/analysis dfs incr | runs 150 sat 149 unsat 84 unknown 0 peak 55 forks 272 \
     pruned 63 incremental 166 calls 170 steals 0 workers 150 timed_out true \
     | 4daa738febf1d355458a0e52b9ca2dec";
    "mkdir/analysis bfs plain | runs 150 sat 149 unsat 47 unknown 0 peak 2446 forks 2642 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 4097cd09cef9deb629476054b27905e1";
    "mkdir/analysis bfs cache | runs 150 sat 149 unsat 47 unknown 0 peak 2446 forks 2642 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 4097cd09cef9deb629476054b27905e1";
    "mkdir/analysis bfs incr | runs 150 sat 149 unsat 47 unknown 0 peak 2446 forks 2642 \
     pruned 35 incremental 158 calls 161 steals 0 workers 150 timed_out true \
     | 4097cd09cef9deb629476054b27905e1";
    "mkdir/crash dfs plain | runs 150 sat 149 unsat 54 unknown 0 peak 31 forks 229 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 315d8bc548e11854a77ae389527ef595";
    "mkdir/crash dfs cache | runs 150 sat 149 unsat 54 unknown 0 peak 31 forks 229 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 315d8bc548e11854a77ae389527ef595";
    "mkdir/crash dfs incr | runs 150 sat 149 unsat 54 unknown 0 peak 31 forks 229 \
     pruned 33 incremental 165 calls 170 steals 0 workers 150 timed_out true \
     | 315d8bc548e11854a77ae389527ef595";
    "mkdir/crash bfs plain | runs 150 sat 149 unsat 79 unknown 0 peak 818 forks 1042 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 9fc0ae3075b7b47ac131eea146cb9fd8";
    "mkdir/crash bfs cache | runs 150 sat 149 unsat 79 unknown 0 peak 818 forks 1042 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 9fc0ae3075b7b47ac131eea146cb9fd8";
    "mkdir/crash bfs incr | runs 150 sat 149 unsat 79 unknown 0 peak 818 forks 1042 \
     pruned 45 incremental 178 calls 183 steals 0 workers 150 timed_out true \
     | 9fc0ae3075b7b47ac131eea146cb9fd8";
    "mknod/analysis dfs plain | runs 150 sat 149 unsat 65 unknown 0 peak 30 forks 240 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | db25044ab98c0fc1f4f07aff54daaf05";
    "mknod/analysis dfs cache | runs 150 sat 149 unsat 65 unknown 0 peak 30 forks 240 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | db25044ab98c0fc1f4f07aff54daaf05";
    "mknod/analysis dfs incr | runs 150 sat 149 unsat 65 unknown 0 peak 30 forks 240 \
     pruned 6 incremental 207 calls 208 steals 0 workers 150 timed_out true \
     | db25044ab98c0fc1f4f07aff54daaf05";
    "mknod/analysis bfs plain | runs 150 sat 149 unsat 2 unknown 0 peak 930 forks 1081 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 2e988dc18aeb687cad1bc3262cddf7b8";
    "mknod/analysis bfs cache | runs 150 sat 149 unsat 2 unknown 0 peak 930 forks 1081 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 2e988dc18aeb687cad1bc3262cddf7b8";
    "mknod/analysis bfs incr | runs 150 sat 149 unsat 2 unknown 0 peak 930 forks 1081 \
     pruned 0 incremental 147 calls 151 steals 0 workers 150 timed_out true \
     | 2e988dc18aeb687cad1bc3262cddf7b8";
    "mknod/crash dfs plain | runs 150 sat 149 unsat 15 unknown 0 peak 30 forks 191 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 6a02275cfbd08737f6a89ee134dd8b30";
    "mknod/crash dfs cache | runs 150 sat 149 unsat 15 unknown 0 peak 30 forks 191 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 6a02275cfbd08737f6a89ee134dd8b30";
    "mknod/crash dfs incr | runs 150 sat 149 unsat 15 unknown 0 peak 30 forks 191 \
     pruned 9 incremental 154 calls 155 steals 0 workers 150 timed_out true \
     | 6a02275cfbd08737f6a89ee134dd8b30";
    "mknod/crash bfs plain | runs 150 sat 149 unsat 13 unknown 0 peak 1211 forks 1372 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | d70d02e925156fc8b4a9328a6d75bb31";
    "mknod/crash bfs cache | runs 150 sat 149 unsat 13 unknown 0 peak 1211 forks 1372 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | d70d02e925156fc8b4a9328a6d75bb31";
    "mknod/crash bfs incr | runs 150 sat 149 unsat 13 unknown 0 peak 1211 forks 1372 \
     pruned 6 incremental 154 calls 156 steals 0 workers 150 timed_out true \
     | d70d02e925156fc8b4a9328a6d75bb31";
    "mkfifo/analysis dfs plain | runs 150 sat 149 unsat 0 unknown 0 peak 76 forks 222 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 613a6e05d2bbe3c7c0af4e011d8aa7d6";
    "mkfifo/analysis dfs cache | runs 150 sat 149 unsat 0 unknown 0 peak 76 forks 222 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 613a6e05d2bbe3c7c0af4e011d8aa7d6";
    "mkfifo/analysis dfs incr | runs 150 sat 149 unsat 0 unknown 0 peak 76 forks 222 \
     pruned 0 incremental 146 calls 149 steals 0 workers 150 timed_out true \
     | 613a6e05d2bbe3c7c0af4e011d8aa7d6";
    "mkfifo/analysis bfs plain | runs 150 sat 149 unsat 12 unknown 0 peak 4895 forks 5056 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 55e51e2d689460be8f364735ab9027fe";
    "mkfifo/analysis bfs cache | runs 150 sat 149 unsat 12 unknown 0 peak 4895 forks 5056 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 55e51e2d689460be8f364735ab9027fe";
    "mkfifo/analysis bfs incr | runs 150 sat 149 unsat 12 unknown 0 peak 4895 forks 5056 \
     pruned 4 incremental 153 calls 157 steals 0 workers 150 timed_out true \
     | 55e51e2d689460be8f364735ab9027fe";
    "mkfifo/crash dfs plain | runs 150 sat 149 unsat 0 unknown 0 peak 71 forks 216 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 2b6bd92012657c339c9893cc4fa841c8";
    "mkfifo/crash dfs cache | runs 150 sat 149 unsat 0 unknown 0 peak 71 forks 216 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 2b6bd92012657c339c9893cc4fa841c8";
    "mkfifo/crash dfs incr | runs 150 sat 149 unsat 0 unknown 0 peak 71 forks 216 \
     pruned 0 incremental 145 calls 149 steals 0 workers 150 timed_out true \
     | 2b6bd92012657c339c9893cc4fa841c8";
    "mkfifo/crash bfs plain | runs 150 sat 149 unsat 5 unknown 0 peak 2451 forks 2604 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 907d8696d66a855d3f5ce50c453cbd11";
    "mkfifo/crash bfs cache | runs 150 sat 149 unsat 5 unknown 0 peak 2451 forks 2604 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 907d8696d66a855d3f5ce50c453cbd11";
    "mkfifo/crash bfs incr | runs 150 sat 149 unsat 5 unknown 0 peak 2451 forks 2604 \
     pruned 0 incremental 150 calls 154 steals 0 workers 150 timed_out true \
     | 907d8696d66a855d3f5ce50c453cbd11";
    "paste/analysis dfs plain | runs 150 sat 149 unsat 0 unknown 0 peak 38 forks 173 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 7e33397976e3a3b765a8b7455364c6c5";
    "paste/analysis dfs cache | runs 150 sat 149 unsat 0 unknown 0 peak 38 forks 173 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 7e33397976e3a3b765a8b7455364c6c5";
    "paste/analysis dfs incr | runs 150 sat 149 unsat 0 unknown 0 peak 38 forks 173 \
     pruned 0 incremental 148 calls 149 steals 0 workers 150 timed_out true \
     | 7e33397976e3a3b765a8b7455364c6c5";
    "paste/analysis bfs plain | runs 150 sat 149 unsat 4 unknown 0 peak 1641 forks 1790 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 156da25fe4fafb9207dfcecb325c3b2e";
    "paste/analysis bfs cache | runs 150 sat 149 unsat 4 unknown 0 peak 1641 forks 1790 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 156da25fe4fafb9207dfcecb325c3b2e";
    "paste/analysis bfs incr | runs 150 sat 149 unsat 4 unknown 0 peak 1641 forks 1790 \
     pruned 0 incremental 149 calls 153 steals 0 workers 150 timed_out true \
     | 156da25fe4fafb9207dfcecb325c3b2e";
    "paste/crash dfs plain | runs 150 sat 149 unsat 24 unknown 0 peak 16 forks 182 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 3bfcd0c769ba02871cab0dae2315aaa0";
    "paste/crash dfs cache | runs 150 sat 149 unsat 24 unknown 0 peak 16 forks 182 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 3bfcd0c769ba02871cab0dae2315aaa0";
    "paste/crash dfs incr | runs 150 sat 149 unsat 24 unknown 0 peak 16 forks 182 \
     pruned 16 incremental 156 calls 157 steals 0 workers 150 timed_out true \
     | 3bfcd0c769ba02871cab0dae2315aaa0";
    "paste/crash bfs plain | runs 150 sat 149 unsat 9 unknown 0 peak 244 forks 391 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 0fc72035eea3b9cc24c338c3d453f4c2";
    "paste/crash bfs cache | runs 150 sat 149 unsat 9 unknown 0 peak 244 forks 391 \
     pruned 0 incremental 0 calls 0 steals 0 workers 150 timed_out true \
     | 0fc72035eea3b9cc24c338c3d453f4c2";
    "paste/crash bfs incr | runs 150 sat 149 unsat 9 unknown 0 peak 244 forks 391 \
     pruned 1 incremental 153 calls 157 steals 0 workers 150 timed_out true \
     | 0fc72035eea3b9cc24c338c3d453f4c2";
    "corpus/drain dfs plain | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 6 timed_out false \
     | 4f8aa2cbdc22ca8fe78c0ad9975d4a79";
    "corpus/drain dfs cache | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 6 timed_out false \
     | 4f8aa2cbdc22ca8fe78c0ad9975d4a79";
    "corpus/drain dfs incr | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 3 calls 5 steals 0 workers 6 timed_out false \
     | 4f8aa2cbdc22ca8fe78c0ad9975d4a79";
    "corpus/drain bfs plain | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 6 timed_out false \
     | 6254ead009d8de70de62d7950afb7f78";
    "corpus/drain bfs cache | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 6 timed_out false \
     | 6254ead009d8de70de62d7950afb7f78";
    "corpus/drain bfs incr | runs 6 sat 5 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 1 calls 5 steals 0 workers 6 timed_out false \
     | 6254ead009d8de70de62d7950afb7f78";
    "corpus/stop dfs plain | runs 2 sat 1 unsat 0 unknown 0 peak 3 forks 3 \
     pruned 0 incremental 0 calls 0 steals 0 workers 2 timed_out false \
     | f0cc24049ad64c001f0e1f56140de49d";
    "corpus/stop dfs cache | runs 2 sat 1 unsat 0 unknown 0 peak 3 forks 3 \
     pruned 0 incremental 0 calls 0 steals 0 workers 2 timed_out false \
     | f0cc24049ad64c001f0e1f56140de49d";
    "corpus/stop dfs incr | runs 2 sat 1 unsat 0 unknown 0 peak 3 forks 3 \
     pruned 0 incremental 0 calls 1 steals 0 workers 2 timed_out false \
     | f0cc24049ad64c001f0e1f56140de49d";
    "corpus/stop bfs plain | runs 4 sat 3 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 4 timed_out false \
     | 1772f5bcd882dfcdb74ed70d4a979427";
    "corpus/stop bfs cache | runs 4 sat 3 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 0 calls 0 steals 0 workers 4 timed_out false \
     | 1772f5bcd882dfcdb74ed70d4a979427";
    "corpus/stop bfs incr | runs 4 sat 3 unsat 0 unknown 0 peak 3 forks 5 \
     pruned 0 incremental 1 calls 3 steals 0 workers 4 timed_out false \
     | 1772f5bcd882dfcdb74ed70d4a979427";
  ]

let test_engine_golden () =
  Alcotest.(check (list string))
    "engine golden" engine_golden_expected (engine_golden_runs ())

let () =
  Alcotest.run "concolic"
    [
      ( "path",
        [
          Alcotest.test_case "branch constraints" `Quick test_path_branch_constraints;
          Alcotest.test_case "concretize entry" `Quick test_path_concretize_entry;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "labels simple" `Quick test_dynamic_labels_simple;
          Alcotest.test_case "explores both sides" `Quick
            test_dynamic_explores_both_sides;
          Alcotest.test_case "unvisited with tiny budget" `Quick
            test_dynamic_unvisited_with_tiny_budget;
          Alcotest.test_case "coverage monotone" `Slow
            test_dynamic_coverage_monotone_in_budget;
          Alcotest.test_case "concurrent label observer" `Quick
            test_label_observer_concurrent;
        ] );
      ( "engine",
        [
          Alcotest.test_case "finds deep crash" `Quick test_engine_finds_deep_crash;
          Alcotest.test_case "respects budget" `Quick test_engine_respects_run_budget;
          Alcotest.test_case "drained frontier terminates" `Quick
            test_engine_drained_frontier_terminates;
          Alcotest.test_case "model drives next run" `Quick
            test_engine_model_drives_next_run;
          Alcotest.test_case "golden" `Quick test_engine_golden;
        ] );
      ( "parallel",
        [
          Alcotest.test_case "jobs=1 = jobs=4 crash set" `Quick
            test_parallel_determinism;
          Alcotest.test_case "steal/incr matrix determinism" `Quick
            test_parallel_determinism_steal_matrix;
          Alcotest.test_case "steal counters and worker runs" `Quick
            test_steal_counters_and_worker_runs;
          Alcotest.test_case "core pruning spares sat siblings" `Quick
            test_core_pruning_spares_sat_siblings;
          Alcotest.test_case "parallel respects budget" `Quick
            test_parallel_respects_run_budget;
          Alcotest.test_case "run budget exact at every jobs" `Quick
            test_run_budget_exact_everywhere;
        ] );
      ( "streams",
        [ Alcotest.test_case "stream bytes symbolic" `Quick test_stream_bytes_symbolic ]
      );
      ( "agreement",
        [
          Alcotest.test_case "concrete = concolic" `Quick
            test_concrete_concolic_agreement;
          Alcotest.test_case "constraints hold on own input" `Quick
            test_path_constraints_hold_on_own_input;
          Alcotest.test_case "both strategies find crashes" `Quick
            test_engine_strategies_explore_same_space;
        ] );
    ]
