(* Tests for the differential fuzzing subsystem: the generator's frontend
   round-trip property (500 seeds), wire-format fuzz negatives (truncation
   and byte corruption must fail closed, never raise), PRNG determinism of
   the split/derive stream, the shrinking minimizer's reduction guarantee,
   corpus save/load, the checked-in corpus replays, and the minimized
   case3b witness (a concretized-store contradiction that guided replay
   must backtrack through and still reproduce). *)

module Config = Bugrepro.Pipeline.Config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generator: the frontend round trip holds on every generated program.
   [Gen.elaborate] is the property — print, re-parse, [Astcmp]-compare,
   link — so a clean elaboration of 500 distinct seeds is 500 instances
   of the print/parse identity plus well-typedness by construction. *)

let test_roundtrip_500 () =
  let rng = Osmodel.Rng.create 7 in
  for index = 0 to 499 do
    let seed = Osmodel.Rng.derive rng ~index in
    let g = Fuzz.Gen.generate ~seed () in
    match Fuzz.Gen.elaborate g with
    | Ok case ->
        check_bool
          (Printf.sprintf "seed %d: parsed AST equals generated AST" seed)
          true
          (Minic.Astcmp.equal_unit g.Fuzz.Gen.ast case.Fuzz.Gen.parsed)
    | Error e ->
        Alcotest.failf "seed %d: %s\n%s" seed
          (Fuzz.Gen.error_to_string e)
          g.Fuzz.Gen.src
  done

let test_generate_deterministic () =
  let g1 = Fuzz.Gen.generate ~seed:12345 () in
  let g2 = Fuzz.Gen.generate ~seed:12345 () in
  check_bool "same seed, same source" true (String.equal g1.src g2.src);
  check_bool "same seed, same args" true (g1.args = g2.args);
  check_bool "same seed, same files" true (g1.files = g2.files)

(* ------------------------------------------------------------------ *)
(* PRNG hygiene: one splittable stream, deterministic derivation *)

let test_rng_derive_deterministic () =
  let a = Osmodel.Rng.create 99 and b = Osmodel.Rng.create 99 in
  for index = 0 to 31 do
    check_int
      (Printf.sprintf "derive %d" index)
      (Osmodel.Rng.derive a ~index)
      (Osmodel.Rng.derive b ~index)
  done;
  (* derivation is positional, not stateful: order doesn't matter *)
  check_int "derive 3 after 31" (Osmodel.Rng.derive a ~index:3)
    (Osmodel.Rng.derive b ~index:3)

let test_rng_split_independent () =
  let parent = Osmodel.Rng.create 5 in
  let c1 = Osmodel.Rng.split parent in
  let c2 = Osmodel.Rng.split parent in
  let draw n rng = List.init n (fun _ -> Osmodel.Rng.int rng 1_000_000) in
  check_bool "sibling streams differ" false (draw 16 c1 = draw 16 c2)

(* ------------------------------------------------------------------ *)
(* Wire fuzz negatives: a report that crashed the field run, serialized,
   then truncated at every byte and corrupted at every byte — decoding
   must return [Error] or a decoded report, never raise. *)

let crashing_report () =
  (* first seed whose field run crashes under full instrumentation *)
  let rng = Osmodel.Rng.create 11 in
  let rec find index =
    if index > 50 then Alcotest.fail "no crashing case in 50 seeds"
    else
      let seed = Osmodel.Rng.derive rng ~index in
      match Fuzz.Gen.elaborate (Fuzz.Gen.generate ~seed ()) with
      | Error _ -> find (index + 1)
      | Ok case -> (
          let plan =
            Instrument.Plan.make
              ~nbranches:(Minic.Program.nbranches case.prog)
              Instrument.Methods.All_branches
          in
          let sc = Fuzz.Gen.scenario case in
          let _run, report =
            Bugrepro.Pipeline.Run.field_run_report
              Fuzz.Oracle.default_cfg.Fuzz.Oracle.config ~plan sc
          in
          match report with None -> find (index + 1) | Some r -> r)
  in
  find 0

let test_wire_truncation_fails_closed () =
  let wire = Instrument.Wire.serialize (crashing_report ()) in
  let n = String.length wire in
  for len = 0 to n - 1 do
    match Instrument.Wire.deserialize_v (String.sub wire 0 len) with
    | Ok _ ->
        (* a prefix that still decodes must at least keep the header *)
        check_bool "decoded prefix keeps magic" true
          (len >= String.length Instrument.Wire.magic)
    | Error (Instrument.Wire.Malformed _ | Instrument.Wire.Unknown_version _)
      ->
        ()
    | exception e ->
        Alcotest.failf "truncation at %d raised %s" len (Printexc.to_string e)
  done

let test_wire_corruption_fails_closed () =
  let wire = Instrument.Wire.serialize (crashing_report ()) in
  let n = String.length wire in
  for pos = 0 to n - 1 do
    let b = Bytes.of_string wire in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0x2a));
    match Instrument.Wire.deserialize_v (Bytes.to_string b) with
    | Ok _ | Error _ -> ()
    | exception e ->
        Alcotest.failf "corruption at %d raised %s" pos (Printexc.to_string e)
  done

(* v3 suppression-line negatives: damage to the reconstruction table must
   fail closed in BOTH readers — a salvaged log without its table (or with
   a misread one) would replay with wrong bit alignment. *)

let suppressed_report () =
  let prog =
    Minic.Program.of_sources
      ~app:
        "int main() {\n\
        \  int buf[8];\n\
        \  int x;\n\
        \  arg(0, buf, 8);\n\
        \  x = buf[0];\n\
        \  if (x > 0) { print_int(1); }\n\
        \  if (x > 0) { print_int(2); }\n\
        \  crash();\n\
        \  return 0;\n\
         }"
      ~libs:[] ()
  in
  let instrumented = Array.make (Minic.Program.nbranches prog) true in
  let sup = Staticanalysis.Suppression.analyze ~instrumented prog in
  let plan =
    Instrument.Plan.with_suppression
      (Instrument.Plan.make
         ~nbranches:(Minic.Program.nbranches prog)
         Instrument.Methods.All_branches)
      sup
  in
  let sc =
    Concolic.Scenario.make ~name:"wire-sup" ~args:[ "q" ]
      ~world:Osmodel.World.default_config prog
  in
  let _run, report =
    Bugrepro.Pipeline.Run.field_run_report Config.default ~plan sc
  in
  match report with
  | Some r when r.Instrument.Report.suppression <> [] -> r
  | Some _ -> Alcotest.fail "report carries no suppression table"
  | None -> Alcotest.fail "field run did not crash"

let test_wire_suppression_truncation_fails_closed () =
  let wire = Instrument.Wire.serialize (suppressed_report ()) in
  let key = "suppression: " in
  let pos = Str.search_forward (Str.regexp_string key) wire 0 in
  let line_end = String.index_from wire pos '\n' in
  for cut = pos + 1 to line_end - 1 do
    let prefix = String.sub wire 0 cut in
    (match Instrument.Wire.deserialize_v prefix with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "strict reader accepted a cut at %d" cut);
    match Instrument.Wire.deserialize_salvage prefix with
    | Error _ -> ()
    | Ok (r, _) ->
        (* before the key is complete the line reads as generic damage;
           fail-closed then means no table AND no log bits (the layout
           puts every log line after the table) *)
        check_bool "salvaged without table has no table" true
          (r.Instrument.Report.suppression = []);
        check_int "salvaged without table has no bits" 0
          (Instrument.Report.nbits r);
        if cut >= pos + String.length key then
          Alcotest.failf "salvage kept a report with a torn table (cut %d)" cut
  done;
  (* a tear exactly at the newline leaves a complete, count-consistent
     table: salvage may keep it, but then with zero log bits *)
  match Instrument.Wire.deserialize_salvage (String.sub wire 0 line_end) with
  | Error _ -> ()
  | Ok (r, _) ->
      check_bool "boundary tear keeps the whole table" true
        (r.Instrument.Report.suppression <> []);
      check_int "boundary tear ships no bits" 0 (Instrument.Report.nbits r)

let tamper wire pos c =
  let b = Bytes.of_string wire in
  Bytes.set b pos c;
  Bytes.to_string b

let test_wire_suppression_unknown_rule_fails_closed () =
  let wire = Instrument.Wire.serialize (suppressed_report ()) in
  let pos = Str.search_forward (Str.regexp_string "suppression: ") wire 0 in
  (* first rule code sits right after the first '=' of the table *)
  let eq = String.index_from wire pos '=' in
  let bad = tamper wire (eq + 1) 'z' in
  (match Instrument.Wire.deserialize_v bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict reader accepted an unknown rule code");
  (match Instrument.Wire.deserialize_salvage bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "salvage accepted an unknown rule code");
  (* entry-count mismatch is equally fatal *)
  let count_pos = pos + String.length "suppression: " in
  let digit = wire.[count_pos] in
  let bumped = tamper wire count_pos (if digit = '7' then '8' else '7') in
  (match Instrument.Wire.deserialize_v bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict reader accepted a count mismatch");
  match Instrument.Wire.deserialize_salvage bumped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "salvage accepted a count mismatch"

let test_wire_version_negative () =
  let wire = Instrument.Wire.serialize (crashing_report ()) in
  let bumped =
    Instrument.Wire.magic_prefix
    ^ string_of_int (Instrument.Wire.version + 1)
    ^ String.sub wire
        (String.length Instrument.Wire.magic)
        (String.length wire - String.length Instrument.Wire.magic)
  in
  match Instrument.Wire.deserialize_v bumped with
  | Error (Instrument.Wire.Unknown_version v) ->
      check_int "reports the alien version" (Instrument.Wire.version + 1) v
  | Ok _ -> Alcotest.fail "future version accepted"
  | Error (Instrument.Wire.Malformed m) ->
      Alcotest.failf "future version misreported as Malformed: %s" m

(* ------------------------------------------------------------------ *)
(* Shrinker: on a crashing generated program, minimizing under "still
   crashes with the same kind" must reduce the AST to <= 25% of its
   original node count (the acceptance bound of the subsystem). *)

let crash_kind (case : Fuzz.Gen.case) : string option =
  let plan =
    Instrument.Plan.make
      ~nbranches:(Minic.Program.nbranches case.prog)
      Instrument.Methods.No_instrumentation
  in
  let sc = Fuzz.Gen.scenario case in
  let run, _ =
    Bugrepro.Pipeline.Run.field_run_report
      Fuzz.Oracle.default_cfg.Fuzz.Oracle.config ~plan sc
  in
  match run.Instrument.Field_run.outcome with
  | Interp.Crash.Crash c -> Some (Interp.Crash.kind_to_string c.kind)
  | _ -> None

let test_shrink_to_quarter () =
  let rng = Osmodel.Rng.create 21 in
  let rec find index =
    if index > 50 then Alcotest.fail "no crashing case in 50 seeds"
    else
      let seed = Osmodel.Rng.derive rng ~index in
      let g = Fuzz.Gen.generate ~seed () in
      match Fuzz.Gen.elaborate g with
      | Error _ -> find (index + 1)
      | Ok case -> (
          match crash_kind case with
          | None -> find (index + 1)
          | Some kind -> (g, kind))
  in
  let g, kind = find 0 in
  let pred g' =
    match Fuzz.Gen.elaborate g' with
    | Error _ -> false
    | Ok case' -> crash_kind case' = Some kind
  in
  let original = Minic.Astcmp.size_unit g.Fuzz.Gen.ast in
  let shrunk, steps = Fuzz.Shrink.minimize ~pred g in
  let final = Minic.Astcmp.size_unit shrunk.Fuzz.Gen.ast in
  check_bool "took at least one step" true (steps > 0);
  check_bool "shrunk program still fails" true (pred shrunk);
  check_bool
    (Printf.sprintf "reduced %d -> %d nodes (<= 25%%)" original final)
    true
    (final * 4 <= original)

(* ------------------------------------------------------------------ *)
(* Corpus: save/load identity on directives and source *)

let test_corpus_save_load () =
  let g = Fuzz.Gen.generate ~seed:424242 () in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "fuzz-corpus-test" in
  let path = Fuzz.Corpus.save ~dir g in
  match Fuzz.Corpus.load path with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok g' ->
      check_int "seed survives" g.seed g'.Fuzz.Gen.seed;
      check_int "world seed survives" g.world_seed g'.Fuzz.Gen.world_seed;
      check_bool "args survive" true (g.args = g'.Fuzz.Gen.args);
      check_bool "files survive" true (g.files = g'.Fuzz.Gen.files);
      check_bool "AST survives the comment prefix" true
        (Minic.Astcmp.equal_unit g.ast g'.Fuzz.Gen.ast);
      (match Fuzz.Gen.elaborate g' with
      | Ok _ -> ()
      | Error e ->
          Alcotest.failf "loaded case does not elaborate: %s"
            (Fuzz.Gen.error_to_string e));
      Sys.remove path

(* ------------------------------------------------------------------ *)
(* Campaign smoke: a small driver run ends green *)

let test_driver_smoke () =
  let opts = { Fuzz.Driver.default_opts with count = 12 } in
  let s = Fuzz.Driver.run opts in
  check_int "all cases ran" 12 s.Fuzz.Driver.cases;
  check_int "no generator errors" 0 s.Fuzz.Driver.gen_errors;
  check_bool "at least one crashing case" true (s.Fuzz.Driver.crashed_cases > 0);
  check_bool "no violations" true (Fuzz.Driver.ok s)

(* ------------------------------------------------------------------ *)
(* Checked-in corpus: every repro file replays through all oracles *)

(* [dune runtest] runs with cwd [_build/default/test] (where the [deps]
   glob places the corpus); [dune exec test/test_fuzz.exe] runs from the
   project root. *)
let corpus_path rel =
  if Sys.file_exists rel then rel else Filename.concat "test" rel

let replay_corpus rel () =
  let dir = corpus_path rel in
  if not (Sys.file_exists dir) then
    Alcotest.skip ()
  else
    let opts = { Fuzz.Driver.default_opts with thorough = true } in
    let s = Fuzz.Driver.replay_dir opts dir in
    check_bool "corpus not empty" true (s.Fuzz.Driver.cases > 0);
    if not (Fuzz.Driver.ok s) then
      Alcotest.failf "corpus violations:\n%s" (Fuzz.Driver.summary_to_string s)

(* The minimized witness for the one violation the first fuzz campaign
   found (seed 3953598749136852661, shrunk 233 -> 56 nodes): a store
   through a concretized symbolic index ([fbuf[(t0 & 3)] = 118]) turns a
   branch that was symbolic in the field run ([fbuf[2] == 53]) concrete in
   a replay run, contradicting its logged bit even under [All_branches].
   Guided replay must treat that dead end as backtrackable (§3.1 case 3b)
   and still reproduce the crash.  This test locks both halves: the
   contradiction fires, and reproduction succeeds anyway. *)
let test_known_case3b_witness () =
  let path = corpus_path "corpus/known/case3b-concretized-store.mc" in
  match Fuzz.Corpus.load path with
  | Error e -> Alcotest.failf "cannot load witness: %s" e
  | Ok g -> (
      match Fuzz.Gen.elaborate g with
      | Error e ->
          Alcotest.failf "witness does not elaborate: %s"
            (Fuzz.Gen.error_to_string e)
      | Ok case -> (
          let cfg = Fuzz.Oracle.default_cfg.Fuzz.Oracle.config in
          let plan =
            Instrument.Plan.make
              ~nbranches:(Minic.Program.nbranches case.prog)
              Instrument.Methods.All_branches
          in
          let sc = Fuzz.Gen.scenario case in
          let _run, report = Bugrepro.Pipeline.Run.field_run_report cfg ~plan sc in
          match report with
          | None -> Alcotest.fail "witness no longer crashes in the field run"
          | Some report ->
              let result, stats =
                Bugrepro.Pipeline.Run.reproduce cfg ~prog:case.prog ~plan report
              in
              check_bool "hits a concrete-log contradiction" true
                (stats.Replay.Guided.cases.case3b > 0);
              check_bool "no uninstrumented symbolic branch" true
                (stats.Replay.Guided.cases.case1 = 0);
              check_bool "still reproduced" true
                (Replay.Guided.reproduced result)))

(* Case seed 355001523278544610 of the [--seed 42] campaign crashes, and
   its raw and suppressed reports replay through different numbers of
   §3.1 cases when the replays run on a worker pool: which pendings the
   workers pick depends on scheduling.  The suppression oracle replays its
   parity pair on one worker, so the campaign's [--jobs 2] must not turn
   that scheduling noise into a violation. *)
let test_suppression_parity_at_jobs_2 () =
  match Fuzz.Gen.elaborate (Fuzz.Gen.generate ~seed:355001523278544610 ()) with
  | Error e ->
      Alcotest.failf "case does not elaborate: %s" (Fuzz.Gen.error_to_string e)
  | Ok case ->
      let cfg =
        {
          Fuzz.Oracle.default_cfg with
          config = Config.with_jobs 2 Fuzz.Oracle.default_cfg.config;
          det_jobs = 2;
        }
      in
      match Fuzz.Oracle.run ~only:"suppression" cfg case with
      | [ { verdict = Fuzz.Oracle.Pass; _ } ] -> ()
      | outcomes ->
          Alcotest.failf "suppression oracle: %s"
            (String.concat "; "
               (List.map
                  (fun (o : Fuzz.Oracle.outcome) ->
                    o.oracle ^ " " ^ Fuzz.Oracle.verdict_to_string o.verdict)
                  outcomes))

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "fuzz"
    [
      ( "gen",
        [
          Alcotest.test_case "500-seed frontend round trip" `Quick
            test_roundtrip_500;
          Alcotest.test_case "generation is deterministic" `Quick
            test_generate_deterministic;
        ] );
      ( "rng",
        [
          Alcotest.test_case "derive is positional and deterministic" `Quick
            test_rng_derive_deterministic;
          Alcotest.test_case "split streams are independent" `Quick
            test_rng_split_independent;
        ] );
      ( "wire-negative",
        [
          Alcotest.test_case "truncation fails closed" `Quick
            test_wire_truncation_fails_closed;
          Alcotest.test_case "byte corruption fails closed" `Quick
            test_wire_corruption_fails_closed;
          Alcotest.test_case "suppression truncation fails closed" `Quick
            test_wire_suppression_truncation_fails_closed;
          Alcotest.test_case "unknown suppression rule fails closed" `Quick
            test_wire_suppression_unknown_rule_fails_closed;
          Alcotest.test_case "future version rejected" `Quick
            test_wire_version_negative;
        ] );
      ( "shrink",
        [ Alcotest.test_case "reduces to <= 25%" `Quick test_shrink_to_quarter ] );
      ( "corpus",
        [
          Alcotest.test_case "save/load identity" `Quick test_corpus_save_load;
          Alcotest.test_case "seed corpus replays green" `Slow
            (replay_corpus "corpus");
          Alcotest.test_case "suppression parity at jobs=2" `Quick
            test_suppression_parity_at_jobs_2;
          Alcotest.test_case "known case3b witness backtracks and reproduces"
            `Quick test_known_case3b_witness;
        ] );
      ( "driver",
        [ Alcotest.test_case "12-case campaign smoke" `Slow test_driver_smoke ] );
    ]
