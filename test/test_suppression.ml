(* Tests for the probe-elision analysis: CFG/dominator edge cases, the
   proof checker, the wire codec and the reconstruction state machine —
   including the field/replay parity the whole scheme rests on. *)

module Config = Bugrepro.Pipeline.Config

module Sup = Staticanalysis.Suppression

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let link src = Minic.Program.of_sources ~app:src ~libs:[] ()

let bid_at (prog : Minic.Program.t) ~line =
  let found = ref None in
  Array.iter
    (fun (b : Minic.Number.info) ->
      if b.bloc.line = line && !found = None then found := Some b.bid)
    prog.branches;
  match !found with
  | Some bid -> bid
  | None -> Alcotest.failf "no branch at line %d" line

(* analyze with every branch instrumented — elision decisions then depend
   only on the proofs, not on the labelling *)
let analyze_all src =
  let prog = link src in
  let instrumented = Array.make (Minic.Program.nbranches prog) true in
  (prog, instrumented, Sup.analyze ~instrumented prog)

let rule_at sup prog ~line = Sup.rule_of sup (bid_at prog ~line)

(* ------------------------------------------------------------------ *)
(* Rule derivation over CFG/dominator edge cases *)

let test_arm_forced_nested () =
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  if (x > 0) {\n\
      \    if (x > 0) { print_int(1); }\n\
      \  } else {\n\
      \    if (x > 0) { print_int(2); }\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  check_bool "then-arm forced true" true
    (rule_at sup prog ~line:7 = Some (Sup.Forced { polarity = true }));
  check_bool "else-arm forced false" true
    (rule_at sup prog ~line:9 = Some (Sup.Forced { polarity = false }))

let test_implied_by_dominator () =
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  if (x > 0) { print_int(1); }\n\
      \  if (x > 0) { print_int(2); }\n\
      \  if (!(x > 0)) { print_int(3); }\n\
      \  return 0;\n\
       }"
  in
  let dom = bid_at prog ~line:6 in
  check_bool "repeat implied, same polarity" true
    (rule_at sup prog ~line:7 = Some (Sup.Implied_by { dom; polarity = true }));
  check_bool "negated condition implied, complement polarity" true
    (rule_at sup prog ~line:8 = Some (Sup.Implied_by { dom; polarity = false }))

let test_early_return_in_nested_branches () =
  (* both paths of the first branch's then-arm return, so the CFG has no
     after-join there; the later repeat is still dominated and kill-free *)
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  if (x > 0) {\n\
      \    if (x > 3) { return 1; }\n\
      \    return 2;\n\
      \  }\n\
      \  if (x > 0) { return 3; }\n\
      \  return 0;\n\
       }"
  in
  let dom = bid_at prog ~line:6 in
  check_bool "repeat after returning arm still implied" true
    (rule_at sup prog ~line:10
    = Some (Sup.Implied_by { dom; polarity = true }))

let test_empty_arms () =
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  if (x > 0) { } else { }\n\
      \  if (x > 0) { }\n\
      \  return 0;\n\
       }"
  in
  let dom = bid_at prog ~line:6 in
  check_bool "empty-armed dominator still implies" true
    (rule_at sup prog ~line:7 = Some (Sup.Implied_by { dom; polarity = true }))

let test_kill_breaks_implication () =
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  if (x > 0) { print_int(1); }\n\
      \  x = x - 1;\n\
      \  if (x > 0) { print_int(2); }\n\
      \  return 0;\n\
       }"
  in
  check_bool "kill on the path blocks the rule" true
    (rule_at sup prog ~line:8 = None)

let test_call_kills_global_operand () =
  (* bump() writes the global the condition reads: the call on the path
     kills the implication; the same shape on a pure local survives *)
  let prog, _, sup =
    analyze_all
      "int g;\n\
       void bump() { g = g + 1; }\n\
       int main() {\n\
      \  int buf[8];\n\
      \  int x;\n\
      \  arg(0, buf, 8);\n\
      \  g = buf[0];\n\
      \  x = buf[1];\n\
      \  if (g > 0) { print_int(1); }\n\
      \  bump();\n\
      \  if (g > 0) { print_int(2); }\n\
      \  if (x > 0) { print_int(3); }\n\
      \  bump();\n\
      \  if (x > 0) { print_int(4); }\n\
      \  return 0;\n\
       }"
  in
  check_bool "call kills global operand" true (rule_at sup prog ~line:11 = None);
  let dom = bid_at prog ~line:12 in
  check_bool "pure local survives the call" true
    (rule_at sup prog ~line:14
    = Some (Sup.Implied_by { dom; polarity = true }))

let test_pointer_write_kills_invariance () =
  (* the loop reads through an int* global; a store through an aliasing
     pointer kills invariance (points-to), a disjoint one does not *)
  (* no calls in the loop body: an unmodelled call (checkpoint, spawn)
     would kill the non-local operand regardless of aliasing; modelled
     calls kill only what their write summary reaches *)
  let src q_target =
    "int g0;\n\
     int g1;\n\
     int* p;\n\
     int* q;\n\
     int main() {\n\
    \  int buf[8];\n\
    \  int n;\n\
    \  int i;\n\
    \  int t;\n\
    \  n = arg(0, buf, 8);\n\
    \  g0 = buf[0];\n\
    \  p = (&g0);\n\
    \  q = (&" ^ q_target
    ^ ");\n\
      \  i = 0;\n\
      \  t = 0;\n\
      \  while (i < n) {\n\
      \    if ((*p) > 0) { t = t + 1; }\n\
      \    (*q) = 5;\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return t;\n\
       }"
  in
  let prog, _, sup = analyze_all (src "g0") in
  check_bool "aliasing store kills invariance" true
    (rule_at sup prog ~line:17 = None);
  let prog, _, sup = analyze_all (src "g1") in
  let loop = bid_at prog ~line:16 in
  check_bool "disjoint store keeps invariance" true
    (rule_at sup prog ~line:17 = Some (Sup.Invariant_of { loop }))

let test_widening_length_loop () =
  (* Gen-style counted loop with an input-dependent bound: the loop
     condition reads its own induction variable (killed every iteration)
     and must stay logged; an inner branch on untouched state is
     loop-invariant *)
  let prog, _, sup =
    analyze_all
      "int main() {\n\
      \  int buf[8];\n\
      \  int n;\n\
      \  int x;\n\
      \  int i;\n\
      \  n = arg(0, buf, 8);\n\
      \  x = buf[0];\n\
      \  i = 0;\n\
      \  while (i < n) {\n\
      \    if (x == 7) { print_int(1); }\n\
      \    i = i + 1;\n\
      \  }\n\
      \  return 0;\n\
       }"
  in
  check_bool "widening-length loop condition stays logged" true
    (rule_at sup prog ~line:9 = None);
  let loop = bid_at prog ~line:9 in
  check_bool "inner branch invariant of the loop" true
    (rule_at sup prog ~line:10 = Some (Sup.Invariant_of { loop }))

(* ------------------------------------------------------------------ *)
(* Proof checker *)

let progs_for_verify =
  [
    "int main() {\n\
    \  int buf[8];\n\
    \  int x;\n\
    \  arg(0, buf, 8);\n\
    \  x = buf[0];\n\
    \  if (x > 0) {\n\
    \    if (x > 0) { print_int(1); }\n\
    \  }\n\
    \  if (x > 0) { print_int(2); }\n\
    \  return 0;\n\
     }";
    "int main() {\n\
    \  int buf[8];\n\
    \  int n;\n\
    \  int x;\n\
    \  int i;\n\
    \  n = arg(0, buf, 8);\n\
    \  x = buf[0];\n\
    \  i = 0;\n\
    \  while (i < n) {\n\
    \    if (x > 0) { print_int(1); }\n\
    \    i = i + 1;\n\
    \  }\n\
    \  return 0;\n\
     }";
  ]

let test_verify_accepts_analysis () =
  List.iter
    (fun src ->
      let prog, instrumented, sup = analyze_all src in
      check_bool "analysis output verifies" true
        (Sup.verify ~instrumented prog (Sup.to_table sup) = Ok ());
      check_bool "analysis found something to elide" true (Sup.n_elided sup > 0))
    progs_for_verify

let test_verify_rejects_forged () =
  let prog, instrumented, sup = analyze_all (List.hd progs_for_verify) in
  let reject name table =
    match Sup.verify ~instrumented prog table with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: forged table accepted" name
  in
  let b_dom = bid_at prog ~line:6 in
  let b_rep = bid_at prog ~line:9 in
  reject "wrong polarity"
    [ (b_rep, Sup.Implied_by { dom = b_dom; polarity = false }) ];
  reject "dominator after the branch"
    [ (b_dom, Sup.Implied_by { dom = b_rep; polarity = true }) ];
  reject "forced on a data-dependent branch"
    [ (b_dom, Sup.Forced { polarity = true }) ];
  reject "invariant without a loop" [ (b_rep, Sup.Invariant_of { loop = b_dom }) ];
  (* a rule on a branch the plan does not instrument is rejected *)
  let partial = Array.copy instrumented in
  partial.(b_rep) <- false;
  (match
     Sup.verify ~instrumented:partial prog
       [ (b_rep, Sup.Implied_by { dom = b_dom; polarity = true }) ]
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rule on uninstrumented branch accepted");
  (* the analysis' own table still passes with the original plan *)
  check_bool "control: real table passes" true
    (Sup.verify ~instrumented prog (Sup.to_table sup) = Ok ())

let test_of_table_fail_closed () =
  let bad n table =
    match Sup.of_table ~nbranches:n table with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "table with %d branches accepted" n
  in
  bad 2 [ (5, Sup.Forced { polarity = true }) ];
  bad 4
    [
      (1, Sup.Forced { polarity = true }); (1, Sup.Forced { polarity = false });
    ];
  bad 4 [ (1, Sup.Implied_by { dom = 9; polarity = true }) ];
  (* implied-by a dominator that is itself elided *)
  bad 4
    [
      (1, Sup.Forced { polarity = true });
      (2, Sup.Implied_by { dom = 1; polarity = true });
    ];
  match
    Sup.of_table ~nbranches:4
      [ (2, Sup.Implied_by { dom = 1; polarity = true }) ]
  with
  | Ok rules -> check_int "dense decode" 4 (Array.length rules)
  | Error e -> Alcotest.failf "well-formed table rejected: %s" e

let test_codec_roundtrip () =
  let table =
    [
      (1, Sup.Forced { polarity = true });
      (3, Sup.Forced { polarity = false });
      (7, Sup.Implied_by { dom = 2; polarity = true });
      (9, Sup.Implied_by { dom = 2; polarity = false });
      (12, Sup.Invariant_of { loop = 11 });
    ]
  in
  (match Sup.table_of_string (Sup.table_to_string table) with
  | Ok t -> check_bool "roundtrip" true (t = table)
  | Error e -> Alcotest.failf "roundtrip failed: %s" e);
  List.iter
    (fun code ->
      match Sup.rule_of_code code with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "bad code %S accepted" code)
    [ ""; "f"; "f2"; "x5"; "d+"; "d-1+"; "d01+"; "d3"; "i"; "i 3"; "iff" ]

(* ------------------------------------------------------------------ *)
(* Reconstruction state machine *)

let test_recon_invariant_per_entry () =
  (* bid 0 = the loop branch (logged), bid 1 = invariant inner branch:
     first execution per loop entry consumes, later ones replay the
     branch's own last bit; a fresh entry (iter = 0 at the loop) resets *)
  let rules = Array.make 2 None in
  rules.(1) <- Some (Sup.Invariant_of { loop = 0 });
  let rc = Sup.Recon.create rules in
  let loop_iter i =
    check_bool "loop branch consumes" true
      (Sup.Recon.on_branch rc ~bid:0 ~iter:i = Sup.Recon.Consume);
    Sup.Recon.record rc ~bid:0 (i < 2)
  in
  loop_iter 0;
  check_bool "first exec consumes" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Consume);
  Sup.Recon.record rc ~bid:1 true;
  loop_iter 1;
  check_bool "second exec elides last bit" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide true);
  loop_iter 2;
  check_bool "third exec still elides" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide true);
  (* the loop is re-entered: freshness resets, the branch consumes again *)
  loop_iter 0;
  check_bool "re-entry consumes afresh" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Consume);
  Sup.Recon.record rc ~bid:1 false;
  loop_iter 1;
  check_bool "and elides the new bit" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide false)

let test_recon_implied_tracks_consumed () =
  (* bid 1 repeats bid 0's consumed bit, bid 2 its complement; before any
     consume the referenced bit is unavailable *)
  let rules = Array.make 3 None in
  rules.(1) <- Some (Sup.Implied_by { dom = 0; polarity = true });
  rules.(2) <- Some (Sup.Implied_by { dom = 0; polarity = false });
  let rc = Sup.Recon.create rules in
  check_bool "unavailable before any consume" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide_unknown);
  check_bool "dom consumes" true
    (Sup.Recon.on_branch rc ~bid:0 ~iter:0 = Sup.Recon.Consume);
  Sup.Recon.record rc ~bid:0 true;
  check_bool "same polarity" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide true);
  check_bool "complement polarity" true
    (Sup.Recon.on_branch rc ~bid:2 ~iter:0 = Sup.Recon.Elide false);
  Sup.Recon.record rc ~bid:0 false;
  check_bool "tracks the latest consumed bit" true
    (Sup.Recon.on_branch rc ~bid:1 ~iter:0 = Sup.Recon.Elide false)

(* ------------------------------------------------------------------ *)
(* Field/replay parity end to end *)

let scenario ?(args = [ "abcd" ]) src =
  let prog = link src in
  Concolic.Scenario.make ~name:"suppression-test" ~args
    ~world:Osmodel.World.default_config prog

let parity_src =
  "int main() {\n\
  \  int buf[8];\n\
  \  int n;\n\
  \  int x;\n\
  \  int i;\n\
  \  n = arg(0, buf, 8);\n\
  \  x = buf[0];\n\
  \  if (x > 0) {\n\
  \    if (x > 0) { print_int(1); }\n\
  \  }\n\
  \  if (x > 0) { print_int(2); }\n\
  \  i = 0;\n\
  \  while (i < n) {\n\
  \    if (x > 0) { print_int(3); }\n\
  \    i = i + 1;\n\
  \  }\n\
  \  return 0;\n\
   }"

let test_field_shadow_parity () =
  let sc = scenario parity_src in
  let prog = sc.Concolic.Scenario.prog in
  let instrumented = Array.make (Minic.Program.nbranches prog) true in
  let sup = Sup.analyze ~instrumented prog in
  check_bool "something elided" true (Sup.n_elided sup > 0);
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let full = Instrument.Field_run.run ~plan sc in
  let elided =
    Instrument.Field_run.run ~shadow:true
      ~plan:(Instrument.Plan.with_suppression plan sup)
      sc
  in
  check_bool "bits saved" true
    (elided.branch_log.nbits < full.branch_log.nbits);
  check_int "no reconstruction mismatches" 0 elided.shadow_mismatches;
  check_bool "elided executions counted" true (elided.n_elided > 0);
  match elided.shadow_log with
  | None -> Alcotest.fail "no shadow log"
  | Some sh ->
      check_int "shadow bit count" full.branch_log.nbits sh.nbits;
      check_bool "shadow bits equal raw bits" true
        (String.equal sh.bytes full.branch_log.bytes)

let crash_src =
  "int main() {\n\
  \  int buf[8];\n\
  \  int x;\n\
  \  arg(0, buf, 8);\n\
  \  x = buf[0];\n\
  \  if (x > 0) {\n\
  \    if (x > 0) { print_int(1); }\n\
  \  }\n\
  \  if (x > 0) {\n\
  \    if (buf[1] == 'k') { crash(); }\n\
  \  }\n\
  \  return 0;\n\
   }"

let test_replay_parity_end_to_end () =
  (* the pipeline with Config.suppression on: the suppressed report must
     reproduce the crash with the same §3.1 counters as the raw one *)
  let sc = scenario ~args:[ "zk" ] crash_src in
  let prog = sc.Concolic.Scenario.prog in
  let cfg =
    Bugrepro.Pipeline.Config.(
      default
      |> with_budget
           ~dynamic:{ Concolic.Engine.max_runs = 60; max_time_s = 5.0 }
           ~replay:{ Concolic.Engine.max_runs = 2_000; max_time_s = 20.0 })
  in
  let analysis = Bugrepro.Pipeline.Run.analyze cfg ~test_scenario:sc prog in
  let raw_plan =
    Bugrepro.Pipeline.Run.plan cfg analysis Instrument.Methods.Dynamic_static
  in
  let sup_plan =
    Bugrepro.Pipeline.Run.plan
      (Bugrepro.Pipeline.Config.with_suppression true cfg)
      analysis Instrument.Methods.Dynamic_static
  in
  check_bool "plan carries a suppression table" true
    (sup_plan.Instrument.Plan.suppression <> None);
  let _, raw_report =
    Bugrepro.Pipeline.Run.field_run_report cfg ~plan:raw_plan sc
  in
  let _, sup_report =
    Bugrepro.Pipeline.Run.field_run_report cfg ~plan:sup_plan sc
  in
  match raw_report, sup_report with
  | Some raw_report, Some sup_report ->
      check_bool "suppressed report ships fewer bits" true
        (Instrument.Report.nbits sup_report
        < Instrument.Report.nbits raw_report);
      check_bool "table shipped" true
        (sup_report.Instrument.Report.suppression <> []);
      let raw_result, raw_stats =
        Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan:raw_plan raw_report
      in
      let sup_result, sup_stats =
        Bugrepro.Pipeline.Run.reproduce cfg ~prog ~plan:sup_plan sup_report
      in
      check_bool "raw reproduces" true (Replay.Guided.reproduced raw_result);
      check_bool "suppressed reproduces" true
        (Replay.Guided.reproduced sup_result);
      let rc = raw_stats.Replay.Guided.cases
      and sc_ = sup_stats.Replay.Guided.cases in
      check_int "case2a parity" rc.case2a sc_.case2a;
      check_int "case2b parity" rc.case2b sc_.case2b;
      check_int "case3a parity" rc.case3a sc_.case3a;
      check_int "case3b parity" rc.case3b sc_.case3b;
      check_int "log_exhausted parity" rc.log_exhausted sc_.log_exhausted
  | _ -> Alcotest.fail "field run did not crash"

let test_replay_rejects_forged_table () =
  (* a report whose table claims an unprovable rule must be rejected
     before replay, not silently reconstructed from *)
  let sc = scenario ~args:[ "zk" ] crash_src in
  let prog = sc.Concolic.Scenario.prog in
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches prog)
      Instrument.Methods.All_branches
  in
  let _, report = Bugrepro.Pipeline.Run.field_run_report Config.default ~plan sc in
  match report with
  | None -> Alcotest.fail "field run did not crash"
  | Some report ->
      let forged =
        {
          report with
          Instrument.Report.suppression =
            [ (bid_at prog ~line:6, Sup.Forced { polarity = true }) ];
        }
      in
      let raised =
        try
          let _ =
            Bugrepro.Pipeline.Run.reproduce Config.default ~prog ~plan forged
          in
          false
        with Invalid_argument _ -> true
      in
      check_bool "forged table rejected" true raised

let () =
  Alcotest.run "suppression"
    [
      ( "rules",
        [
          Alcotest.test_case "arm-forced in nested branches" `Quick
            test_arm_forced_nested;
          Alcotest.test_case "dominator-implied repeats" `Quick
            test_implied_by_dominator;
          Alcotest.test_case "early return in nested branches" `Quick
            test_early_return_in_nested_branches;
          Alcotest.test_case "empty arms" `Quick test_empty_arms;
          Alcotest.test_case "kill breaks implication" `Quick
            test_kill_breaks_implication;
          Alcotest.test_case "call kills global operand" `Quick
            test_call_kills_global_operand;
          Alcotest.test_case "pointer write kills invariance" `Quick
            test_pointer_write_kills_invariance;
          Alcotest.test_case "widening-length loop" `Quick
            test_widening_length_loop;
        ] );
      ( "verify",
        [
          Alcotest.test_case "accepts analysis output" `Quick
            test_verify_accepts_analysis;
          Alcotest.test_case "rejects forged rules" `Quick
            test_verify_rejects_forged;
          Alcotest.test_case "of_table fail-closed" `Quick
            test_of_table_fail_closed;
          Alcotest.test_case "codec roundtrip" `Quick test_codec_roundtrip;
        ] );
      ( "recon",
        [
          Alcotest.test_case "invariant once per loop entry" `Quick
            test_recon_invariant_per_entry;
          Alcotest.test_case "implied tracks consumed bits" `Quick
            test_recon_implied_tracks_consumed;
        ] );
      ( "parity",
        [
          Alcotest.test_case "field shadow parity" `Quick
            test_field_shadow_parity;
          Alcotest.test_case "replay parity end to end" `Slow
            test_replay_parity_end_to_end;
          Alcotest.test_case "forged table rejected at replay" `Quick
            test_replay_rejects_forged_table;
        ] );
    ]
