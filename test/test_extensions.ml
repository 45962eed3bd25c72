(* Tests for the §6/§4 extensions: branch-log compression, the rejected
   branch-prediction logging scheme, checkpointing for long-running
   applications, and cooperative multithreading with schedule logging. *)

module Config = Bugrepro.Pipeline.Config
module Run = Bugrepro.Pipeline.Run

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Compression *)

let test_compress_roundtrip_biased () =
  (* loop-like log: long runs of identical bits *)
  let bits =
    List.concat_map (fun b -> List.init 200 (fun _ -> b)) [ true; false; true ]
  in
  let log = Instrument.Branch_log.of_bits bits in
  let c = Instrument.Compress.compress log in
  check_bool "rle chosen" true (c.encoding = `Rle);
  check_bool "shrinks a lot" true
    (Instrument.Compress.ratio log c > 5.0);
  let log' = Instrument.Compress.decompress c in
  Alcotest.(check (list bool)) "roundtrip" bits (Instrument.Branch_log.to_bits log')

let test_compress_adversarial_falls_back () =
  (* alternating bits: RLE can only expand, so raw must win *)
  let bits = List.init 512 (fun i -> i mod 2 = 0) in
  let log = Instrument.Branch_log.of_bits bits in
  let c = Instrument.Compress.compress log in
  check_bool "no expansion" true
    (Instrument.Compress.size_bytes c <= Instrument.Branch_log.size_bytes log);
  let log' = Instrument.Compress.decompress c in
  Alcotest.(check (list bool)) "roundtrip" bits (Instrument.Branch_log.to_bits log')

let test_compress_empty () =
  let log = Instrument.Branch_log.of_bits [] in
  let c = Instrument.Compress.compress log in
  check_int "empty" 0 (Instrument.Compress.size_bytes c);
  check_int "roundtrip empty" 0 (Instrument.Compress.decompress c).nbits

let prop_compress_roundtrip =
  QCheck.Test.make ~count:300 ~name:"compress/decompress identity"
    QCheck.(list bool)
    (fun bits ->
      let log = Instrument.Branch_log.of_bits bits in
      let c = Instrument.Compress.compress log in
      Instrument.Branch_log.to_bits (Instrument.Compress.decompress c) = bits)

let test_compress_real_log_ratio () =
  (* a real field-run log compresses well, like the paper's 10-20x gzip *)
  let sc = Workloads.Microbench.counter_loop ~iterations:20_000 () in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches sc.prog)
      Instrument.Methods.All_branches
  in
  let r = Instrument.Field_run.run ~plan sc in
  let c = Instrument.Compress.compress r.branch_log in
  check_bool "ratio > 10x" true (Instrument.Compress.ratio r.branch_log c > 10.0)

(* ------------------------------------------------------------------ *)
(* Branch-prediction logging (the rejected alternative) *)

let test_predictor_perfect_on_constant_loop () =
  let p = Instrument.Predictor.create ~nbranches:1 Instrument.Predictor.Two_bit in
  (* a loop branch taken 100 times then not taken once *)
  for _ = 1 to 100 do
    ignore (Instrument.Predictor.observe p 0 ~taken:true)
  done;
  let mispredicted_exit = Instrument.Predictor.observe p 0 ~taken:false in
  check_bool "exit mispredicted" true mispredicted_exit;
  check_bool "almost no mispredictions" true (p.mispredictions <= 2)

let test_predictor_log_size_accounting () =
  let p =
    Instrument.Predictor.create ~nbranches:4 Instrument.Predictor.Last_direction
  in
  ignore (Instrument.Predictor.observe p 0 ~taken:false);
  (* initial state predicts taken: first observation mispredicts *)
  check_int "4 bytes per misprediction" (p.mispredictions * 4)
    (Instrument.Predictor.log_size_bytes p)

let test_predictor_alternating_is_worst_case () =
  let p = Instrument.Predictor.create ~nbranches:1 Instrument.Predictor.Last_direction in
  for i = 0 to 99 do
    ignore (Instrument.Predictor.observe p 0 ~taken:(i mod 2 = 0))
  done;
  check_bool "high misprediction rate" true
    (Instrument.Predictor.misprediction_rate p > 0.9)

(* ------------------------------------------------------------------ *)
(* Checkpointing *)

let ckpt_scenario () =
  let reqs =
    Workloads.Http_gen.workload ~seed:3 12
    @ (Workloads.Userver.experiment 1).requests
  in
  Workloads.Userver.checkpointed_scenario reqs

let ckpt_plan () =
  Instrument.Plan.make
    ~nbranches:(Minic.Program.nbranches (Lazy.force Workloads.Userver.checkpointed_prog))
    Instrument.Methods.All_branches

let test_checkpoint_discards_log () =
  let sc = ckpt_scenario () in
  let r = Checkpoint.Cfield.run ~plan:(ckpt_plan ()) sc in
  check_bool "crashed" true
    (match r.outcome with Interp.Crash.Crash _ -> true | _ -> false);
  check_bool "took checkpoints" true (r.epochs >= 1);
  check_bool "snapshot captured" true (r.snapshot <> None);
  check_bool "most bits discarded" true (r.discarded_bits > r.branch_log.nbits);
  check_int "bits accounted" r.total_bits (r.discarded_bits + r.branch_log.nbits)

let test_checkpoint_snapshot_structure_only () =
  let sc = ckpt_scenario () in
  let r = Checkpoint.Cfield.run ~plan:(ckpt_plan ()) sc in
  match r.snapshot with
  | None -> Alcotest.fail "no snapshot"
  | Some s ->
      (* the snapshot describes global structure; its size is tiny compared
         to the state contents it covers *)
      let cells =
        List.fold_left (fun acc (g : Checkpoint.Snapshot.global) -> acc + g.size) 0 s.globals
      in
      check_bool "has the server globals" true (cells > 8000);
      check_bool "ships structure, not content" true
        (Checkpoint.Snapshot.size_bytes s < cells)

let test_checkpoint_replay_reproduces () =
  let sc = ckpt_scenario () in
  let plan = ckpt_plan () in
  let r = Checkpoint.Cfield.run ~plan sc in
  match Checkpoint.Cfield.report_of ~sc ~plan r with
  | Some (report, Some snapshot) ->
      let result, _ =
        Checkpoint.Creplay.reproduce
          ~budget:{ Concolic.Engine.max_runs = 20_000; max_time_s = 30.0 }
          ~prog:(Lazy.force Workloads.Userver.checkpointed_prog)
          ~plan ~snapshot report
      in
      check_bool "reproduced from checkpoint" true (Replay.Guided.reproduced result)
  | _ -> Alcotest.fail "expected a report with a snapshot"

let test_checkpointed_server_still_serves () =
  (* checkpointing must not change observable behaviour *)
  let reqs = Workloads.Http_gen.workload ~seed:9 10 in
  let sc = Workloads.Userver.checkpointed_scenario reqs in
  let _w, handle = Osmodel.World.kernel sc.world in
  let r =
    Interp.Eval.run sc.prog
      {
        Interp.Eval.inputs = Interp.Inputs.of_strings sc.args;
        kernel = Interp.Kernel.of_world handle;
        hooks = Interp.Eval.no_hooks;
        max_steps = sc.max_steps;
      scheduler = None;
      }
  in
  check_bool "clean exit" true
    (match r.outcome with Interp.Crash.Exit _ -> true | _ -> false);
  check_bool "served all" true
    (List.exists
       (fun l -> l = "served 10")
       (String.split_on_char '\n' r.output))

(* ------------------------------------------------------------------ *)
(* Multithreading (~6) *)

let mt_compile src = Workloads.Runtime_lib.link ~name:"mt" src

let mt_run ?scheduler (src : string) =
  let prog = mt_compile src in
  let _w, handle = Osmodel.World.kernel Osmodel.World.default_config in
  Interp.Eval.run prog
    {
      Interp.Eval.inputs = Interp.Inputs.of_strings [];
      kernel = Interp.Kernel.of_world handle;
      hooks = Interp.Eval.no_hooks;
      max_steps = 1_000_000;
      scheduler;
    }

let test_threads_spawn_join () =
  let r =
    mt_run
      {|int worker(int x) { return x * 2; }
        int main() { int t = spawn("worker", 21); return join(t); }|}
  in
  check_bool "joined result" true (r.outcome = Interp.Crash.Exit 42)

let test_threads_interleave_shared_state () =
  let r =
    mt_run
      {|int c = 0;
        int w(int n) { int i; for (i = 0; i < n; i = i + 1) { c = c + 1; yield(); } return 0; }
        int main() { int a = spawn("w", 5); int b = spawn("w", 7); join(a); join(b); return c; }|}
  in
  check_bool "shared counter" true (r.outcome = Interp.Crash.Exit 12)

let test_threads_my_tid_distinct () =
  let r =
    mt_run
      {|int w(int x) { return my_tid(); }
        int main() {
          int a = spawn("w", 0);
          int b = spawn("w", 0);
          int ra = join(a);
          int rb = join(b);
          if (ra != rb) { return 1; }
          return 0;
        }|}
  in
  check_bool "distinct tids" true (r.outcome = Interp.Crash.Exit 1)

let test_threads_deadlock_detected () =
  let r = mt_run {|int main() { join(99); return 0; }|} in
  check_bool "deadlock reported" true
    (match r.outcome with Interp.Crash.Aborted _ -> true | _ -> false)

let mt_order_src =
  {|int order[4];
    int n = 0;
    int w(int x) {
      order[n] = x; n = n + 1;
      yield();
      order[n] = x; n = n + 1;
      return 0;
    }
    int main() {
      int a = spawn("w", 1);
      int b = spawn("w", 2);
      join(a);
      join(b);
      return order[0] * 1000 + order[1] * 100 + order[2] * 10 + order[3];
    }|}

let test_threads_schedule_controls_interleaving () =
  let rr = mt_run mt_order_src in
  (* round-robin: 1 2 1 2 *)
  check_bool "round robin" true (rr.outcome = Interp.Crash.Exit 1212);
  (* forced: always prefer the highest ready tid *)
  let hi = mt_run ~scheduler:(fun ready -> List.fold_left max 0 ready) mt_order_src in
  check_bool "highest-first differs" true (hi.outcome <> rr.outcome)

let test_mtrace_crashes_and_replays_with_schedule () =
  let sc = Workloads.Mtrace.scenario ~seed:3 () in
  let prog = sc.prog in
  let plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let _, report = Run.field_run_report Config.default ~plan sc in
  match report with
  | None -> Alcotest.fail "race did not fire under the field scheduler"
  | Some report ->
      check_bool "schedule log shipped" true
        (match report.schedule_log with
        | Some l -> Instrument.Schedule_log.length l > 0
        | None -> false);
      let result, _ =
        Run.reproduce
          (Config.with_budget
             ~replay:{ Concolic.Engine.max_runs = 20_000; max_time_s = 20.0 }
             Config.default)
          ~prog ~plan report
      in
      check_bool "reproduced with schedule" true (Replay.Guided.reproduced result)

let test_mtrace_fails_without_schedule () =
  (* ~6's claim: the branch trace alone cannot pin the interleaving *)
  let sc = Workloads.Mtrace.scenario ~seed:3 () in
  let prog = sc.prog in
  let plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let _, report = Run.field_run_report Config.default ~plan sc in
  let report = Option.get report in
  let stripped = { report with Instrument.Report.schedule_log = None } in
  let result, _ =
    Run.reproduce
      (Config.with_budget
         ~replay:{ Concolic.Engine.max_runs = 600; max_time_s = 5.0 }
         Config.default)
      ~prog ~plan stripped
  in
  check_bool "not reproduced without schedule" false
    (Replay.Guided.reproduced result)

let test_mtrace_benign_clean () =
  let sc = Workloads.Mtrace.benign_scenario () in
  let plan =
    Instrument.Plan.make ~nbranches:(Minic.Program.nbranches sc.prog)
      Instrument.Methods.All_branches
  in
  let r = Instrument.Field_run.run ~plan sc in
  check_bool "benign exits" true
    (match r.outcome with Interp.Crash.Exit _ -> true | _ -> false)

let () =
  Alcotest.run "extensions"
    [
      ( "compress",
        [
          Alcotest.test_case "biased roundtrip" `Quick test_compress_roundtrip_biased;
          Alcotest.test_case "adversarial fallback" `Quick
            test_compress_adversarial_falls_back;
          Alcotest.test_case "empty" `Quick test_compress_empty;
          Alcotest.test_case "real log ratio" `Quick test_compress_real_log_ratio;
          QCheck_alcotest.to_alcotest prop_compress_roundtrip;
        ] );
      ( "predictor",
        [
          Alcotest.test_case "constant loop" `Quick
            test_predictor_perfect_on_constant_loop;
          Alcotest.test_case "log size" `Quick test_predictor_log_size_accounting;
          Alcotest.test_case "alternating worst case" `Quick
            test_predictor_alternating_is_worst_case;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "discards log" `Quick test_checkpoint_discards_log;
          Alcotest.test_case "snapshot is structural" `Quick
            test_checkpoint_snapshot_structure_only;
          Alcotest.test_case "replay reproduces" `Slow
            test_checkpoint_replay_reproduces;
          Alcotest.test_case "server behaviour unchanged" `Quick
            test_checkpointed_server_still_serves;
        ] );
      ( "threads",
        [
          Alcotest.test_case "spawn/join" `Quick test_threads_spawn_join;
          Alcotest.test_case "interleaved shared state" `Quick
            test_threads_interleave_shared_state;
          Alcotest.test_case "distinct tids" `Quick test_threads_my_tid_distinct;
          Alcotest.test_case "deadlock detected" `Quick
            test_threads_deadlock_detected;
          Alcotest.test_case "schedule controls interleaving" `Quick
            test_threads_schedule_controls_interleaving;
          Alcotest.test_case "race replays with schedule" `Slow
            test_mtrace_crashes_and_replays_with_schedule;
          Alcotest.test_case "race needs the schedule" `Slow
            test_mtrace_fails_without_schedule;
          Alcotest.test_case "benign input clean" `Quick test_mtrace_benign_clean;
        ] );
    ]
