(* Every metric the benchmark prints, declared once: name, unit, which
   direction is better, and kind.  [Count] metrics are deterministic work
   counters (and ratios of them): the same seed must reproduce them
   exactly, and every pass of a run must agree on them.  [Time] and [Rate]
   metrics come from the wall clock.  BENCHMARK.json must list the same
   names, units and directions; the self-test checks that it does. *)

type kind = Count | Time | Rate
type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  kind : kind;
  end_to_end : bool;
}

let e name unit_ better kind = { name; unit_; better; kind; end_to_end = true }
let l name unit_ better kind = { name; unit_; better; kind; end_to_end = false }

(* End-to-end metrics are printed by every workload, so they are the ones
   with a meaning on all three (see perfbench/README.md). *)
let end_to_end =
  [
    e "setup_s" "s" Lower Time;
    e "pass_s" "s" Lower Time;
    e "items_per_s" "1/s" Higher Rate;
    e "success_share" "share" Higher Count;
    e "report_bytes" "B" Lower Count;
    e "work_per_pass" "count" Lower Count;
  ]

let per_layer =
  [
    (* the workloads' own phases *)
    l "field_s" "s" Lower Time;
    l "field_overhead_x" "x" Lower Count;
    l "log_bytes_per_req" "B" Lower Count;
    l "repro_s" "s" Lower Time;
    l "repro_failed" "share" Lower Count;
    l "ingest_rps" "1/s" Higher Rate;
    l "recover_rps" "1/s" Higher Rate;
    l "drain_s" "s" Lower Time;
    l "ingest_lost" "share" Lower Count;
    l "drain_unreproduced" "share" Lower Count;
    (* layers *)
    l "staticanalysis.analyze_s" "s" Lower Time;
    l "staticanalysis.symbolic_labels" "count" Lower Count;
    l "concolic.dynamic_s" "s" Lower Time;
    l "concolic.dynamic_runs" "count" Lower Count;
    l "concolic.runs" "count" Lower Count;
    l "concolic.forks" "count" Lower Count;
    l "concolic.pending_peak" "count" Lower Count;
    l "concolic.core_pruned" "count" Higher Count;
    l "solver.calls" "count" Lower Count;
    l "solver.sat" "count" Lower Count;
    l "solver.unsat" "count" Lower Count;
    l "solver.unknown" "count" Lower Count;
    l "solver.incremental" "count" Higher Count;
    l "solver.cache_hit_ratio" "share" Higher Count;
    l "solver.useful_ratio" "share" Higher Count;
    l "replay.case1_forked" "count" Lower Count;
    l "replay.case2b_forced" "count" Lower Count;
    l "replay.case3b_aborted" "count" Lower Count;
    l "replay.log_exhausted" "count" Lower Count;
    l "replay.bug_s_p50" "s" Lower Time;
    l "replay.bug_s_high" "s" Lower Time;
    l "replay.s_per_run" "s" Lower Time;
    l "interp.uninstrumented_s" "s" Lower Time;
    l "interp.steps" "count" Lower Count;
    l "interp.instr" "count" Lower Count;
    l "instrument.logged_bits" "bits" Lower Count;
    l "instrument.encoded_bytes" "B" Lower Count;
    l "instrument.elided" "count" Higher Count;
    l "instrument.probe_share" "share" Lower Time;
    l "instrument.serialize_us" "us" Lower Time;
    l "instrument.deserialize_us" "us" Lower Time;
    l "instrument.salvage_us" "us" Lower Time;
    l "triage.submit_us_p50" "us" Lower Time;
    l "triage.submit_us_p99" "us" Lower Time;
    l "triage.tick_us_p50" "us" Lower Time;
    l "triage.tick_us_high" "us" Lower Time;
    l "triage.salvaged" "count" Lower Count;
    l "triage.clusters" "count" Lower Count;
    l "triage.dedup_ratio" "share" Lower Count;
    l "triage.index_bytes" "B" Lower Count;
    l "triage.open_s" "s" Lower Time;
    l "triage.drain_runs" "count" Lower Count;
    l "telemetry.overhead_s" "s" Lower Time;
    (* the host, as measured: wall clock of a pass without normalisation,
       and the reference sample behind the normalisation (Calib) *)
    l "pass_wall_s" "s" Lower Time;
    l "host.reference_ms" "ms" Lower Time;
  ]

let all = end_to_end @ per_layer
let kind_name = function Count -> "count" | Time -> "time" | Rate -> "rate"
let better_name = function Lower -> "lower" | Higher -> "higher"

let to_json m =
  Printf.sprintf
    {|{"name": "%s", "unit": "%s", "better": "%s", "kind": "%s", "end_to_end": %b}|}
    m.name m.unit_ (better_name m.better) (kind_name m.kind) m.end_to_end
