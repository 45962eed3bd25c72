#!/bin/sh
# Tier-1 gate: everything that must pass before a commit.  CI runs this
# same script, so a green local run means a green required CI job.
#
#   $ bin/check.sh            # full build + tests (+ fmt if available)
#   $ bin/check.sh --quick    # also run the bench smoke pass (--quick,
#                             # --jobs 4) and validate its JSON summary,
#                             # plus a seeded 200-case differential fuzz
#                             # smoke (bugrepro fuzz), the checked-in
#                             # corpus replay, a probe-elision smoke
#                             # (elided > 0 + reconstruction parity on the
#                             # walkthrough program), a triage smoke
#                             # over a generated batch with duplicates and
#                             # torn tails (strict JSON summary validated),
#                             # an encoding smoke (the same loop-heavy demo
#                             # saved with the wire-v4 online codec on and
#                             # off: encoded strictly smaller, identical
#                             # reproduction, non-payload lines identical),
#                             # a triage-service smoke (seeded loadgen
#                             # burst through `bugrepro serve` with a
#                             # bounded queue, snapshot JSON validated),
#                             # an adaptive smoke (two closed-loop
#                             # deployment rounds: round 1 refines, round
#                             # 2 ships fewer bits, JSON validated), and
#                             # the benchmark self-test (below)
#   $ bin/check.sh --perfbench  # only the benchmark self-test:
#                             # python3 perfbench/selftest.py at smoke
#                             # scale — instrumented and bare runs print
#                             # the same output, replayed inputs crash
#                             # when re-run concretely, metrics match
#                             # BENCHMARK.json (CI runs this as its own job)
#
# FUZZ_COUNT overrides the smoke's case count (the nightly CI lane sets
# it to a few thousand); FUZZ_SEED overrides the campaign seed.
#
# Fails fast with the failing step's output; correct non-zero exit codes
# even under pipelines (pipefail where the shell supports it).

set -eu
# pipefail is not POSIX; enable it when the shell has it so a failing
# command on the left of a pipe still fails the script
if (set -o pipefail) 2>/dev/null; then
  set -o pipefail
fi

cd "$(dirname "$0")/.."

QUICK=0
PERFBENCH_ONLY=0
for arg in "$@"; do
  case "$arg" in
    --quick) QUICK=1 ;;
    --perfbench) PERFBENCH_ONLY=1 ;;
    *)
      echo "usage: bin/check.sh [--quick | --perfbench]" >&2
      exit 2
      ;;
  esac
done

if ! command -v dune >/dev/null 2>&1; then
  echo "error: dune not found on PATH — install the OCaml toolchain" \
       "(opam install dune) or enter the right opam switch" >&2
  exit 1
fi

perfbench_selftest() {
  echo "== perfbench self-test (smoke scale) =="
  # every workload at smoke scale, traced and untraced, with the
  # benchmark's own correctness checks on (a violated one fails the run)
  if ! command -v python3 >/dev/null 2>&1; then
    echo "error: python3 not found; the benchmark self-test needs it" >&2
    exit 1
  fi
  python3 perfbench/selftest.py
}

if [ "$PERFBENCH_ONLY" = 1 ]; then
  perfbench_selftest
  echo "== all checks passed =="
  exit 0
fi

echo "== PRNG hygiene (no global Random in lib/ or bench/) =="
# all randomness must flow through the seeded, splittable Osmodel.Rng
# stream — stdlib Random is process-global state that breaks replayable
# seeds (rng.ml itself is the one place allowed to reference it, in docs)
if grep -rn --include='*.ml' --include='*.mli' -E '\bRandom\.' lib bench \
     | grep -v 'lib/osmodel/rng\.'; then
  echo "error: global Random usage found; use Osmodel.Rng instead" >&2
  exit 1
fi

echo "== dune build @all =="
dune build @all

echo "== dune runtest =="
dune runtest

if command -v ocamlformat >/dev/null 2>&1; then
  echo "== dune build @fmt =="
  dune build @fmt
else
  echo "== skipping @fmt (ocamlformat not installed) =="
fi

if [ "$QUICK" = 1 ]; then
  echo "== bench smoke (--quick --jobs 4 --json --trace) =="
  JSON=$(mktemp /tmp/bench-smoke.XXXXXX.json)
  TRACE=$(mktemp /tmp/bench-trace.XXXXXX.jsonl)
  # --trace makes the bench self-validate the span stream on exit (every
  # span closed, start <= end, parent ids resolving) and fail otherwise
  dune exec bench/main.exe -- --quick --jobs 4 --json "$JSON" --trace "$TRACE"
  # the summary and every trace line must be strict JSON (CI parses them)
  if command -v python3 >/dev/null 2>&1; then
    python3 -c "import json, sys; json.load(open(sys.argv[1]))" "$JSON"
    echo "bench JSON summary OK: $JSON"
    python3 -c "import json, sys; [json.loads(l) for l in open(sys.argv[1]) if l.strip()]" "$TRACE"
    echo "bench trace JSONL OK: $TRACE"
  else
    echo "python3 not found; skipping JSON validation of $JSON and $TRACE"
  fi
fi

if [ "$QUICK" = 1 ]; then
  FUZZ_SEED="${FUZZ_SEED:-42}"
  FUZZ_COUNT="${FUZZ_COUNT:-200}"
  echo "== differential fuzz smoke (seed $FUZZ_SEED, $FUZZ_COUNT cases) =="
  # any violation is shrunk to a minimal repro and saved under
  # ./fuzz-failures (CI uploads that directory as an artifact on failure)
  dune exec bin/bugrepro_cli.exe -- fuzz --seed "$FUZZ_SEED" \
    --count "$FUZZ_COUNT" --shrink || {
      echo "fuzz smoke FAILED; shrunk repros:" >&2
      ls fuzz-failures 2>/dev/null >&2 || true
      exit 1
    }
  echo "== corpus replay (test/corpus + known repros) =="
  dune exec bin/bugrepro_cli.exe -- fuzz --corpus test/corpus --thorough
  dune exec bin/bugrepro_cli.exe -- fuzz --corpus test/corpus/known --thorough

  echo "== suppression smoke (elision + reconstruction parity) =="
  # the probe-elision walkthrough must elide probes AND reconstruct the
  # exact suppression-free log (the CLI exits 4 on proof-checker rejection
  # or parity failure); CI uploads the JSON report as an artifact
  SUPJSON=$(mktemp /tmp/suppression-report.XXXXXX.json)
  dune exec bin/minic_cli.exe -- analyze examples/suppression_demo.mc \
    --suppression-report --json -- abc > "$SUPJSON"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SUPJSON" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))["summary"]
assert s["elided"] > 0, "nothing elided in the walkthrough"
assert s["parity"]["ok"], "reconstruction parity failed"
assert s["parity"]["suppressed_bits"] < s["parity"]["full_bits"], \
    "suppression saved no bits"
EOF
    echo "suppression JSON report OK: $SUPJSON"
  else
    echo "python3 not found; skipping JSON validation of $SUPJSON"
  fi

  echo "== triage smoke (batch with duplicates + torn tails) =="
  # a tiny generated batch: duplicates must collapse (dedup < 1), the torn
  # reports must come through the salvage path, and the summary must be
  # strict JSON (CI parses and uploads it)
  BATCH=$(mktemp -d /tmp/triage-batch.XXXXXX)
  SUMMARY=$(mktemp /tmp/triage-summary.XXXXXX.json)
  dune exec bin/bugrepro_cli.exe -- batch "$BATCH" --count 8 --seed 7 --torn 2
  dune exec bin/bugrepro_cli.exe -- triage "$BATCH" --jobs 4 --json "$SUMMARY"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SUMMARY" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["salvaged"] > 0, "no report came through the salvage path"
assert s["dedup_ratio"] < 1.0, "duplicates did not collapse"
assert s["counts"]["timed_out"] == 0, "a cluster timed out in the smoke"
EOF
    echo "triage JSON summary OK: $SUMMARY"
  else
    echo "python3 not found; skipping JSON validation of $SUMMARY"
  fi

  echo "== encoding smoke (wire-v4 online codec A/B) =="
  # the same loop-heavy demo run saved with the online encoder on and
  # off: both must reproduce (exit 0), the encoded wire must carry a
  # [branch-enc] payload and be strictly smaller than the raw wire, and
  # every non-payload line must be byte-identical — the codec changes
  # how the bits ship, never what is shipped alongside them
  ENCW=$(mktemp /tmp/report-enc.XXXXXX)
  RAWW=$(mktemp /tmp/report-raw.XXXXXX)
  dune exec bin/bugrepro_cli.exe -- demo userver --method dynamic+static \
    --save "$ENCW" > /dev/null
  dune exec bin/bugrepro_cli.exe -- demo userver --method dynamic+static \
    --no-encode --save "$RAWW" > /dev/null
  grep -q '^branch-enc: ' "$ENCW" || {
    echo "error: encoded report lacks a branch-enc payload" >&2; exit 1; }
  grep -q '^branch-log: ' "$RAWW" || {
    echo "error: --no-encode report lacks a branch-log payload" >&2; exit 1; }
  ENC_B=$(wc -c < "$ENCW"); RAW_B=$(wc -c < "$RAWW")
  if [ "$ENC_B" -ge "$RAW_B" ]; then
    echo "error: encoded wire ($ENC_B B) not smaller than raw ($RAW_B B)" \
         "on a loop-heavy workload" >&2
    exit 1
  fi
  grep -v '^branch-enc: ' "$ENCW" > "$ENCW.rest"
  grep -v '^branch-log: ' "$RAWW" > "$RAWW.rest"
  if ! cmp -s "$ENCW.rest" "$RAWW.rest"; then
    echo "error: encode on/off changed a non-payload wire line" >&2
    exit 1
  fi
  echo "encoding smoke OK: $ENC_B B encoded < $RAW_B B raw, rest identical"

  echo "== triage-service smoke (streaming serve + seeded loadgen) =="
  # a seeded burst through the long-running service: the bounded queue
  # must shed deterministically (the burst overflows capacity 24), torn
  # reports ride the salvage path, and the snapshot renders as strict
  # JSON.  Exit 0/1 are fine (1 = a replay ladder expired under load);
  # exit 5 means ingestion stalled — a queue deadlock — and fails here
  SNAP=$(mktemp /tmp/serve-snapshot.XXXXXX.json)
  SERVE_EXIT=0
  dune exec bin/bugrepro_cli.exe -- serve --generate 60 --torn-pct 0.08 \
    --seed 7 --queue 24 --drop drop-oldest -j 2 --deadline 20 \
    --snapshot "$SNAP" > /dev/null || SERVE_EXIT=$?
  if [ "$SERVE_EXIT" -gt 1 ]; then
    echo "error: serve smoke exited $SERVE_EXIT (5 = ingestion stall /" \
         "queue deadlock)" >&2
    exit 1
  fi
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$SNAP" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["processed"] > 0, "the service processed nothing"
assert s["queued"] == 0, "reports stuck in the queue after drain"
assert s["dedup_ratio"] < 1.0, "duplicates did not collapse"
assert s["dropped"] > 0, "the capacity-24 queue never shed under the burst"
EOF
    echo "serve snapshot JSON OK: $SNAP"
  else
    echo "python3 not found; skipping JSON validation of $SNAP"
  fi

  echo "== adaptive smoke (closed-loop deployment, 2 rounds) =="
  # two deployment rounds of the default fleet: round 1 must refine at
  # least one cohort (the loop is doing something) and round 2 must ship
  # strictly fewer branch bits than round 1 (the healthy cohorts
  # de-escalated); the round summary must be strict JSON (CI uploads it)
  ADAPT=$(mktemp /tmp/adapt-rounds.XXXXXX.json)
  dune exec bin/bugrepro_cli.exe -- adapt --rounds 2 --seed 1 \
    --json "$ADAPT" > /dev/null
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$ADAPT" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))["rounds"]
assert len(r) == 2, "expected two simulated rounds"
assert r[0]["cohorts_refined"] > 0, "round 1 refined no cohort"
assert r[1]["total_bits"] < r[0]["total_bits"], \
    "round 2 did not shed observation cost"
EOF
    echo "adaptive round-summary JSON OK: $ADAPT"
  else
    echo "python3 not found; skipping JSON validation of $ADAPT"
  fi

  perfbench_selftest
fi

echo "== all checks passed =="
