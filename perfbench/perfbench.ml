(* The repository benchmark: one closed-loop, single-process workload per
   run, on the shipped pipeline configuration.

     sh perfbench/run.sh \
       --workload field|repro|triage --seed N --seconds S --trace 0|1

   A run sets the workload up at least three times (the median is
   [setup_s]), then runs passes over the seeded inputs until [--seconds]
   have elapsed, checking every output.  Times are reported at the
   nominal host speed that [Calib] measures during the run.  The last
   line of standard output is one JSON object: [correct], [attempted],
   [failed] and [metrics] — the end-to-end metrics with [--trace 0], the
   per-layer ones with [--trace 1].  A traced run records the benchmark's own spans on every
   other pass (the passes between are the untraced reference for
   [telemetry.overhead_s]) and writes them to .perfbench/trace-WORKLOAD.jsonl.
   [--list-metrics] prints the metric declarations as JSON.  See
   perfbench/README.md for the workloads and metrics. *)

module Tally = Check.Tally

type workload = Field | Repro | Triage

let workload_of_string = function
  | "field" -> Some Field
  | "repro" -> Some Repro
  | "triage" -> Some Triage
  | _ -> None

let work_dir = ".perfbench"

(* Set-up runs at least three times, and until it has taken two seconds,
   so that a cheap set-up still yields a steady median. *)
let min_setups = 3
let setup_window_s = 2.0
let max_setups = 50

(* A run must end within three minutes; stop starting passes well before. *)
let hard_limit_s = 150.0

(* [wall] and the times in [tally] are at nominal host speed; [raw_wall]
   is the pass as the clock measured it. *)
type pass = { wall : float; raw_wall : float; tally : Tally.t; traced : bool }

type measured = {
  setup_walls : float list;  (** at nominal host speed *)
  setup : Tally.t;
  passes : pass list;
}

let same_counts what = function
  | [] | [ _ ] -> ()
  | first :: rest ->
      let c0 = Tally.sorted_counts first in
      List.iter
        (fun t ->
          let c = Tally.sorted_counts t in
          if c <> c0 then
            let diff =
              List.filter (fun kv -> not (List.mem kv c0)) c
              |> List.map (fun (k, v) -> Printf.sprintf "%s=%g" k v)
            in
            Check.violation
              (Printf.sprintf "%s repeated with different work counts: %s"
                 what (String.concat ", " diff)))
        rest

let measure ~started ~seconds ~trace ~setup ~pass =
  Spans.recording trace;
  (* Every set-up and pass starts from a compacted heap, so that none
     pays for the garbage of the ones before it. *)
  let setup_once () =
    let t = Tally.create () in
    Gc.compact ();
    let env, wall, f =
      Calib.calibrated (fun () ->
          Spans.with_ "perfbench.setup" (fun () -> setup t))
    in
    (env, wall, f, t)
  in
  let rec setups acc n total =
    if n >= max_setups || (n >= min_setups && total >= setup_window_s) then
      List.rev acc
    else
      let ((_, wall, _, _) as s) = setup_once () in
      setups (s :: acc) (n + 1) (total +. wall)
  in
  let setups = setups [] 0 0.0 in
  same_counts "set-up" (List.map (fun (_, _, _, t) -> t) setups);
  let env, _, _, setup_tally = List.hd (List.rev setups) in
  (* two passes at least: a median of one would be a single sample, and a
     traced run needs one untraced pass to compare *)
  let min_passes = 2 in
  let t0 = Sample.now () in
  (* start a pass only while the longest one so far still fits *)
  let rec loop acc n longest =
    let now = Sample.now () in
    let fits =
      now -. t0 +. longest <= seconds
      && now -. started +. longest <= hard_limit_s
    in
    if n >= min_passes && not fits then List.rev acc
    else begin
      let traced = trace && n mod 2 = 0 in
      Spans.recording traced;
      let tally = Tally.create () in
      let gross0 = Sample.now () in
      Gc.compact ();
      let (), raw_wall, f =
        Calib.calibrated (fun () ->
            Spans.with_ "perfbench.pass"
              ~attrs:[ ("index", Telemetry.Event.Int n) ]
              (fun () -> pass env tally))
      in
      Spans.recording false;
      Tally.scale tally f;
      let p = { wall = raw_wall *. f; raw_wall; tally; traced } in
      loop (p :: acc) (n + 1) (Float.max longest (Sample.now () -. gross0))
    end
  in
  let passes = loop [] 0 0.0 in
  same_counts "a pass" (List.map (fun p -> p.tally) passes);
  ( env,
    {
      setup_walls = List.map (fun (_, w, f, _) -> w *. f) setups;
      setup = setup_tally;
      passes;
    } )

(* ------------------------------------------------------------------ *)
(* Metrics *)

let median_of f m = Sample.median (List.map f m.passes)
let first_count m k = Tally.count (List.hd m.passes).tally k
let per_pass_wall m k = median_of (fun p -> Tally.wall p.tally k) m
let share a b = Sample.ratio a b

(* Per-layer times that come from the benchmark's spans: per set-up, or
   per call, at the nominal host speed of the whole run. *)
let span_metrics m (spans : Spans.span list) =
  let per_setup xs =
    Sample.sum xs /. float_of_int (List.length m.setup_walls)
  in
  let f = Calib.factor () in
  let durs name = List.map (( *. ) f) (Spans.durations spans name) in
  let us name = 1e6 *. Sample.mean (durs name) in
  let q name p = Sample.quantile p (durs name) in
  let high name = q name (Sample.high_percentile (List.length (durs name))) in
  [
    ("staticanalysis.analyze_s", per_setup (durs "staticanalysis.analyze"));
    ("concolic.dynamic_s", per_setup (durs "concolic.dynamic"));
    ("instrument.serialize_us", us "wire.serialize");
    ("instrument.deserialize_us", us "wire.deserialize_v");
    ("instrument.salvage_us", us "wire.deserialize_salvage");
    ("triage.submit_us_p50", 1e6 *. q "triage.submit" 0.5);
    ("triage.submit_us_p99", 1e6 *. q "triage.submit" 0.99);
    ("triage.tick_us_p50", 1e6 *. q "triage.tick" 0.5);
    ("triage.tick_us_high", 1e6 *. high "triage.tick");
  ]

let counts m names = List.map (fun k -> (k, first_count m k)) names

let metrics wl m spans =
  let c = first_count m in
  let wall = per_pass_wall m in
  let pass_s =
    match wl with
    | Field | Repro -> median_of (fun p -> p.wall) m
    | Triage ->
        median_of
          (fun p ->
            Tally.wall p.tally "ingest" +. Tally.wall p.tally "open"
            +. Tally.wall p.tally "drain")
          m
  in
  let ingest_rps = median_of (fun p -> share (c "submitted") (Tally.wall p.tally "ingest")) m in
  let items_per_s =
    match wl with
    | Field -> median_of (fun p -> share (c "items") (Tally.wall p.tally "instrumented")) m
    | Repro -> share (c "concolic.runs") pass_s
    | Triage -> share (c "submitted") pass_s
  in
  let success_share =
    match wl with
    | Field -> 1.0 -. share (float_of_int !Check.failed) (float_of_int !Check.attempted)
    | Repro -> share (c "reproduced") (c "bugs")
    | Triage -> share (c "reproduced") (c "triage.clusters")
  in
  let only w v = if wl = w then v else 0.0 in
  let bug_s = List.concat_map (fun p -> Tally.samples p.tally "replay.bug_s") m.passes in
  let traced_walls = List.filter_map (fun p -> if p.traced then Some p.wall else None) m.passes
  and untraced_walls = List.filter_map (fun p -> if p.traced then None else Some p.wall) m.passes in
  let overhead =
    if traced_walls = [] || untraced_walls = [] then 0.0
    else Sample.median traced_walls -. Sample.median untraced_walls
  in
  [
    ("setup_s", Sample.median m.setup_walls);
    ("pass_s", pass_s);
    ("items_per_s", items_per_s);
    ("success_share", success_share);
    ("report_bytes", share (c "report_bytes.sum") (c "report_bytes.n"));
    ( "work_per_pass",
      match wl with
      | Field -> c "instr.instrumented"
      | Repro -> c "concolic.runs"
      | Triage -> c "triage.drain_runs" );
    ("field_s", only Field pass_s);
    ("field_overhead_x", share (c "instr.instrumented") (c "instr.baseline"));
    ("log_bytes_per_req", share (c "log_bytes") (c "requests"));
    ("repro_s", only Repro pass_s);
    ("repro_failed", only Repro (1.0 -. success_share));
    ("ingest_rps", ingest_rps);
    ("recover_rps", median_of (fun p -> share (c "recovered") (Tally.wall p.tally "open")) m);
    ("drain_s", wall "drain");
    ("ingest_lost", share (c "lost") (c "submitted"));
    ("drain_unreproduced", only Triage (1.0 -. success_share));
    ("staticanalysis.symbolic_labels", Tally.count m.setup "staticanalysis.symbolic_labels");
    ("concolic.dynamic_runs", Tally.count m.setup "concolic.dynamic_runs");
    ("solver.cache_hit_ratio", share (c "cache.hits") (c "cache.hits" +. c "cache.misses"));
    ( "solver.useful_ratio",
      share (c "solver.sat") (c "solver.sat" +. c "solver.unsat" +. c "solver.unknown") );
    ("interp.uninstrumented_s", wall "baseline");
    ( "instrument.probe_share",
      median_of
        (fun p ->
          let i = Tally.wall p.tally "instrumented" in
          share (i -. Tally.wall p.tally "baseline") i)
        m );
    ("triage.open_s", wall "open");
    ("replay.bug_s_p50", Sample.median bug_s);
    ("replay.bug_s_high", Sample.quantile (Sample.high_percentile (List.length bug_s)) bug_s);
    ("replay.s_per_run", share (wall "replay") (c "concolic.runs"));
    ("triage.dedup_ratio", c "triage.dedup_ratio");
    ("telemetry.overhead_s", overhead);
    ("pass_wall_s", median_of (fun p -> p.raw_wall) m);
    ("host.reference_ms", 1e3 *. Calib.reference_s ());
  ]
  @ counts m
      [
        "concolic.runs"; "concolic.forks"; "concolic.pending_peak";
        "concolic.core_pruned"; "solver.calls"; "solver.sat"; "solver.unsat";
        "solver.unknown"; "solver.incremental"; "replay.case1_forked";
        "replay.case2b_forced"; "replay.case3b_aborted"; "replay.log_exhausted";
        "interp.steps"; "interp.instr"; "instrument.logged_bits";
        "instrument.encoded_bytes"; "instrument.elided"; "triage.salvaged";
        "triage.clusters"; "triage.index_bytes"; "triage.drain_runs";
      ]
  @ span_metrics m spans

(* ------------------------------------------------------------------ *)
(* Output *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let result_json ~correct ~attempted ~failed values (defs : Metric.t list) =
  let metric (d : Metric.t) =
    let v =
      match List.assoc_opt d.name values with
      | Some v when Float.is_finite v -> v
      | _ -> 0.0
    in
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} d.name (json_number v)
      d.unit_
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " (List.map metric defs))

(* Where the traced passes spent their time: every replayed bug, and the
   benchmark's top-level call sites, as a share of traced pass time. *)
let print_breakdown m (spans : Spans.span list) =
  let traced =
    Sample.sum
      (List.filter_map (fun p -> if p.traced then Some p.raw_wall else None) m.passes)
  in
  let by_key key_of =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun (s : Spans.span) ->
        match key_of s with
        | Some k ->
            let n, d = Option.value (Hashtbl.find_opt tbl k) ~default:(0, 0.0) in
            Hashtbl.replace tbl k (n + 1, d +. s.dur)
        | None -> ())
      spans;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
  in
  let show title rows =
    Printf.printf "%s (share of %.3f s traced pass time):\n" title traced;
    List.iter
      (fun (k, (n, d)) ->
        Printf.printf "  %-34s %6d calls %9.4f s %6.2f%%\n" k n d
          (100.0 *. share d traced))
      rows
  in
  show "spans inside passes, by name"
    (by_key (fun s ->
         if s.root = "perfbench.pass" && s.name <> s.root then Some s.name
         else None));
  let bugs =
    by_key (fun s ->
        match List.assoc_opt "bug" s.attrs with
        | Some (Telemetry.Event.Str b) -> Some b
        | _ -> None)
  in
  if bugs <> [] then show "replay.reproduce by bug" bugs

let print_table values (defs : Metric.t list) =
  List.iter
    (fun (d : Metric.t) ->
      Printf.printf "  %-32s %14.6g %s\n" d.name
        (Option.value (List.assoc_opt d.name values) ~default:0.0)
        d.unit_)
    defs

(* ------------------------------------------------------------------ *)

let () =
  let started = Sample.now () in
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and smoke = ref false and list = ref false in
  let int_arg r = Arg.Int (fun n -> r := Some n) in
  let specs =
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "field|repro|triage");
      ("--seed", int_arg seed, "N  input seed");
      ("--seconds", int_arg seconds, "S  measured time per run");
      ("--trace", int_arg trace, "0|1  untraced end-to-end or traced per-layer run");
      ("--scale", Arg.Symbol ([ "full"; "smoke" ], fun s -> smoke := s = "smoke"),
       "  input sizes (smoke: the self-test's)");
      ("--list-metrics", Arg.Set list, "  print the metric declarations");
    ]
  in
  let usage = "perfbench --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !list then begin
    print_endline
      ("[" ^ String.concat ",\n " (List.map Metric.to_json Metric.all) ^ "]");
    exit 0
  end;
  let wl, seed, seconds, trace =
    match (Option.bind !workload workload_of_string, !seed, !seconds, !trace) with
    | Some wl, Some seed, Some seconds, Some ((0 | 1) as t) when seconds > 0 ->
        (wl, seed, float_of_int seconds, t = 1)
    | _ ->
        Arg.usage specs usage;
        exit 2
  in
  if not (Sys.file_exists work_dir) then Sys.mkdir work_dir 0o755;
  (* Replay keeps the shipped seed: varied with the input seed, it swung
     the triage drain between 1.4 s and 9.2 s and repro's replay work by
     a fifth (README.md), which no bound could hold. *)
  let cfg = Setup.config in
  let measure setup pass = measure ~started ~seconds ~trace ~setup ~pass in
  let with_digests seeded fixed (env, m) = (m, seeded env, fixed env) in
  let m, seeded, fixed =
    match wl with
    | Field ->
        let scale = if !smoke then Wl_field.smoke else Wl_field.full in
        let inputs = Wl_field.inputs scale ~seed in
        measure (Wl_field.setup cfg inputs) Wl_field.pass
        |> with_digests Wl_field.seeded Wl_field.fixed
    | Repro ->
        measure (Wl_repro.setup ~smoke:!smoke cfg) Wl_repro.pass
        |> with_digests (fun _ -> "none") Wl_repro.fixed
    | Triage ->
        let scale = if !smoke then Wl_triage.smoke else Wl_triage.full in
        measure (Wl_triage.setup scale cfg ~seed ~work_dir) Wl_triage.pass
        |> with_digests Wl_triage.seeded Wl_triage.fixed
  in
  let spans = Spans.closed () in
  let values = metrics wl m spans in
  let defs = if trace then Metric.per_layer else Metric.end_to_end in
  let name = match wl with Field -> "field" | Repro -> "repro" | Triage -> "triage" in
  Printf.printf "perfbench %s seed %d: %d set-ups, %d passes (%d traced) in %.1f s\n"
    name seed (List.length m.setup_walls) (List.length m.passes)
    (List.length (List.filter (fun p -> p.traced) m.passes))
    (Sample.now () -. started);
  Printf.printf "  inputs: seeded=%s fixed=%s\n" seeded fixed;
  let sw = m.setup_walls in
  let walls f = String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (f p)) m.passes) in
  Printf.printf
    "  set-up walls at nominal speed: min %.3f median %.3f max %.3f\n\
    \  pass walls at nominal speed: %s\n  pass walls measured: %s\n\
    \  host reference sample: median %.3f ms of %d (nominal %.3f ms)\n"
    (Sample.quantile 0.0 sw) (Sample.median sw) (Sample.quantile 1.0 sw)
    (walls (fun p -> p.wall)) (walls (fun p -> p.raw_wall))
    (1e3 *. Calib.reference_s ()) (Calib.n_samples ()) (1e3 *. Calib.nominal_s);
  print_table values defs;
  if trace then begin
    print_breakdown m spans;
    let path =
      Filename.concat work_dir (Printf.sprintf "trace-%s.jsonl" name)
    in
    Spans.write_jsonl path;
    Printf.printf "trace: %s (%d spans)\n" path (List.length spans)
  end;
  let correct = Check.correct () in
  print_endline
    (result_json ~correct ~attempted:!Check.attempted ~failed:!Check.failed
       values defs);
  exit (if correct then 0 else 1)
