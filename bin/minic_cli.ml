(* minic — run, inspect or analyse a MiniC source file from disk.

   $ minic run prog.c -- arg1 arg2        # execute (runtime library linked)
   $ minic check prog.c                   # parse + type check, list branches
   $ minic pretty prog.c                  # normalised pretty-printed source
   $ minic analyze prog.c -- testarg      # static + dynamic branch labels
   $ minic analyze prog.c --report        # + per-branch precision/provenance
   $ minic analyze prog.c --json          # precision report as JSON
   $ minic analyze prog.c --suppression-report
                                          # probe-elision verdict per branch
                                          # (+ --json for the strict JSON form)

   The simulated OS starts empty; give file inputs with --file path=contents
   and connection payloads with --conn data (repeatable).

   Exit codes: 0 ok, 1 compile/link or runtime failure, 2 usage,
   3 type error, 4 suppression proof-checker rejection or reconstruction
   parity failure. *)

let usage () =
  prerr_endline
    "usage: minic (run|check|pretty|analyze) FILE [--report] [--json] [--suppression-report] [--no-refine] [--file p=c] [--conn data] [-- args...]";
  exit 2

type opts = {
  mutable files : (string * string) list;
  mutable conns : string list;
  mutable args : string list;
  mutable report : bool;
  mutable json : bool;
  mutable suppression : bool;
  mutable refine : bool;
}

let parse_opts argv =
  let o =
    { files = []; conns = []; args = []; report = false; json = false;
      suppression = false; refine = true }
  in
  let rec go = function
    | [] -> ()
    | "--" :: rest ->
        o.args <- rest;
        ()
    | "--file" :: spec :: rest ->
        (match String.index_opt spec '=' with
        | Some i ->
            o.files <-
              o.files
              @ [
                  ( String.sub spec 0 i,
                    String.sub spec (i + 1) (String.length spec - i - 1) );
                ]
        | None -> usage ());
        go rest
    | "--conn" :: data :: rest ->
        o.conns <- o.conns @ [ data ];
        go rest
    | "--report" :: rest ->
        o.report <- true;
        go rest
    | "--json" :: rest ->
        o.json <- true;
        go rest
    | "--suppression-report" :: rest ->
        o.suppression <- true;
        go rest
    | "--no-refine" :: rest ->
        o.refine <- false;
        go rest
    | _ -> usage ()
  in
  go argv;
  o

let load file =
  match open_in_bin file with
  | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
  | exception Sys_error msg ->
      Printf.eprintf "%s\n" msg;
      exit 1

let compile file =
  match Workloads.Runtime_lib.link ~name:(Filename.remove_extension file) (load file) with
  | prog -> prog
  | exception Minic.Parser.Error (msg, loc) ->
      Printf.eprintf "%s: parse error: %s\n" (Minic.Loc.to_string loc) msg;
      exit 1
  | exception Minic.Lexer.Error (msg, loc) ->
      Printf.eprintf "%s: lex error: %s\n" (Minic.Loc.to_string loc) msg;
      exit 1
  | exception Minic.Program.Link_error msg ->
      Printf.eprintf "link error: %s\n" msg;
      exit 1
  | exception Minic.Typecheck.Error (msg, loc) ->
      Printf.eprintf "%s: type error: %s\n" (Minic.Loc.to_string loc) msg;
      exit 3

let () =
  match Array.to_list Sys.argv with
  | _ :: cmd :: file :: rest -> (
      let o = parse_opts rest in
      match cmd with
      | "check" ->
          let prog = compile file in
          Printf.printf "%s: OK — %d functions, %d branch locations\n" file
            (List.length prog.funcs)
            (Minic.Program.nbranches prog);
          Array.iter
            (fun (b : Minic.Number.info) ->
              Printf.printf "  b%03d %-5s %s (%s)\n" b.bid
                (Minic.Number.kind_to_string b.bkind)
                (Minic.Loc.to_string b.bloc) b.bfunc)
            prog.branches;
          exit 0
      | "pretty" ->
          let u = Minic.Parser.parse_unit ~file (load file) in
          print_endline (Minic.Pretty.unit_to_string u);
          exit 0
      | "run" ->
          let prog = compile file in
          let world =
            { Osmodel.World.default_config with files = o.files; conns = o.conns }
          in
          let _w, handle = Osmodel.World.kernel world in
          let r =
            Interp.Eval.run prog
              {
                Interp.Eval.inputs = Interp.Inputs.of_strings o.args;
                kernel = Interp.Kernel.of_world handle;
                hooks = Interp.Eval.no_hooks;
                max_steps = 100_000_000;
                scheduler = None;
              }
          in
          print_string r.output;
          Printf.eprintf "-> %s (%d steps)\n"
            (Interp.Crash.outcome_to_string r.outcome)
            r.steps;
          exit (match r.outcome with Interp.Crash.Exit n -> n land 0xff | _ -> 1)
      | "analyze" ->
          let prog = compile file in
          let world =
            { Osmodel.World.default_config with files = o.files; conns = o.conns }
          in
          let sc =
            Concolic.Scenario.make ~name:file ~args:o.args ~world prog
          in
          let dyn =
            Concolic.Dynamic.analyze
              ~budget:{ Concolic.Engine.max_runs = 100; max_time_s = 10.0 }
              sc
          in
          let sta = Staticanalysis.Static.analyze ~refine:o.refine prog in
          if sta.widened_loops > 0 then
            Printf.eprintf
              "static: warning: %d loop fixpoint(s) finished by widening \
               (precision may be reduced)\n\
               %!"
              sta.widened_loops;
          if o.suppression then begin
            (* probe-elision verdicts for the paper-default Dynamic_static
               plan, with the same proof check and reconstruction-parity
               self-check the pipeline applies before trusting a table *)
            let plan =
              Instrument.Plan.make
                ~nbranches:(Minic.Program.nbranches prog)
                ~dynamic:dyn.labels ~static:sta.labels
                Instrument.Methods.Dynamic_static
            in
            let instrumented = plan.Instrument.Plan.instrumented in
            let sup = Staticanalysis.Suppression.analyze ~instrumented prog in
            (match
               Staticanalysis.Suppression.verify ~instrumented prog
                 (Staticanalysis.Suppression.to_table sup)
             with
            | Ok () -> ()
            | Error msg ->
                Printf.eprintf "suppression proof-checker rejection: %s\n" msg;
                exit 4);
            (* parity self-check: the shadow log a suppressed field run
               reconstructs must equal a suppression-free run's log, bit
               for bit, with zero reconstruction mismatches *)
            let full = Instrument.Field_run.run ~plan sc in
            let elided =
              Instrument.Field_run.run ~shadow:true
                ~plan:(Instrument.Plan.with_suppression plan sup)
                sc
            in
            let full_log = full.Instrument.Field_run.branch_log in
            let parity_ok =
              elided.Instrument.Field_run.shadow_mismatches = 0
              &&
              match elided.Instrument.Field_run.shadow_log with
              | None -> false
              | Some sh ->
                  sh.Instrument.Branch_log.nbits
                  = full_log.Instrument.Branch_log.nbits
                  && sh.Instrument.Branch_log.bytes
                     = full_log.Instrument.Branch_log.bytes
            in
            if o.json then begin
              let extra =
                Printf.sprintf
                  ",\"parity\":{\"ok\":%b,\"elided_execs\":%d,\"mismatches\":%d,\"full_bits\":%d,\"suppressed_bits\":%d}"
                  parity_ok elided.Instrument.Field_run.n_elided
                  elided.Instrument.Field_run.shadow_mismatches
                  full_log.Instrument.Branch_log.nbits
                  elided.Instrument.Field_run.branch_log
                    .Instrument.Branch_log.nbits
              in
              print_endline
                (Staticanalysis.Suppression.report_to_json ~extra sup prog
                   ~instrumented)
            end
            else begin
              print_string
                (Staticanalysis.Suppression.report_to_text ~all:o.report sup
                   prog ~instrumented);
              Printf.printf
                "parity: %s — %d elided executions, %d mismatches, %d bits \
                 full vs %d suppressed\n"
                (if parity_ok then "ok" else "FAILED")
                elided.Instrument.Field_run.n_elided
                elided.Instrument.Field_run.shadow_mismatches
                full_log.Instrument.Branch_log.nbits
                elided.Instrument.Field_run.branch_log
                  .Instrument.Branch_log.nbits
            end;
            exit (if parity_ok then 0 else 4)
          end;
          if o.json then begin
            (* machine-readable output only: the precision report *)
            let rep = Staticanalysis.Static.precision sta prog ~dynamic:dyn.labels in
            print_endline (Staticanalysis.Precision.to_json rep);
            exit (if rep.n_missed > 0 then 1 else 0)
          end;
          Printf.printf
            "dynamic: %d runs, %.0f%% coverage; static: %d symbolic of %d (%d \
             const-proved, %d dead)\n"
            dyn.runs (100.0 *. dyn.coverage) sta.n_symbolic
            (Minic.Program.nbranches prog)
            sta.n_const_proved sta.n_dead_proved;
          Array.iter
            (fun (b : Minic.Number.info) ->
              Printf.printf "  b%03d %-28s dynamic=%-9s static=%s\n" b.bid
                (Minic.Loc.to_string b.bloc)
                (Minic.Label.to_string dyn.labels.(b.bid))
                (Minic.Label.to_string sta.labels.(b.bid)))
            prog.branches;
          if o.report then begin
            let rep = Staticanalysis.Static.precision sta prog ~dynamic:dyn.labels in
            print_newline ();
            print_string (Staticanalysis.Precision.to_text rep);
            exit (if rep.n_missed > 0 then 1 else 0)
          end;
          exit 0
      | _ -> usage ())
  | _ -> usage ()
