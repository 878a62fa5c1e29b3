#!/usr/bin/env bash
# Tier-1 gate: format, lints, build, tests.
#
# Usage: ./ci.sh
# Requires a toolchain with rustfmt + clippy. The workspace depends on no
# registry crate, so every stage runs offline.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> float codec large sample (release)"
# The matrix text codec's writer must give Display's bytes and its reader
# str::parse's bits: 2^26 random bit patterns, every exponent's boundary
# patterns and 2^24 random decimal strings.
cargo test -q --release -p rdd-models --test float_codec -- --ignored

echo "==> telemetry disabled-path guard"
# With RDD_TRACE unset the recorder must stay off: no trace file may appear,
# and a traced run must produce JSONL that `rdd report` accepts (it checks
# every line against the event schema and exits non-zero on a violation).
RDD="cargo run -q --release -p rdd-cli --"
GUARD_DIR="$(mktemp -d)"
trap 'rm -rf "$GUARD_DIR"' EXIT
env -u RDD_TRACE $RDD train tiny --method gcn >/dev/null
test ! -e "$GUARD_DIR/off.jsonl" \
  || { echo "telemetry guard: a trace file appeared with telemetry disabled" >&2; exit 1; }
RDD_TRACE="$GUARD_DIR/on.jsonl" $RDD train tiny --method rdd --models 2 >/dev/null
$RDD report "$GUARD_DIR/on.jsonl" >/dev/null

echo "==> two-process byte gate (two runs of one command write the same bytes)"
# Runs are bitwise deterministic, so two processes running the same
# command must agree byte for byte: a cora cascade's predictions, its run
# directory (the one-line manifest minus its wall_time_s values) and the
# student distilled from it. The golden test (part of `cargo test` above)
# pins the same surfaces for a tiny cascade.
BYTE_DIR="$GUARD_DIR/bytes"
mkdir -p "$BYTE_DIR"
for p in 1 2; do
  $RDD train cora --models 3 --run-dir "$BYTE_DIR/run$p" \
    --pred-out "$BYTE_DIR/pred$p.txt" >/dev/null
  $RDD distill-mlp "$BYTE_DIR/run$p" "$BYTE_DIR/student$p.artifact" >/dev/null
  sed -i -E 's/"wall_time_s":[^,}]*//g' "$BYTE_DIR/run$p/manifest.json"
done
cmp "$BYTE_DIR/pred1.txt" "$BYTE_DIR/pred2.txt" \
  || { echo "byte gate: predictions differ between two runs" >&2; exit 1; }
diff -rq "$BYTE_DIR/run1" "$BYTE_DIR/run2" >&2 \
  || { echo "byte gate: run directories differ between two runs" >&2; exit 1; }
cmp "$BYTE_DIR/student1.artifact" "$BYTE_DIR/student2.artifact" \
  || { echo "byte gate: distilled students differ between two runs" >&2; exit 1; }

echo "==> trace validator rejects schema violations"
# This script relies on `rdd report`'s exit status to validate every trace, so
# prove a violation reaches it: the traced run plus one bad line (an epoch
# with |V_b| > |V_r|, then a serve_batch whose hits + misses != nodes) must
# fail, naming the line and the broken rule.
BAD_LINE="$(($(wc -l < "$GUARD_DIR/on.jsonl") + 1))"
for bad in \
  '{"ev":"epoch","t_ms":1,"model":"gcn","member":1,"epoch":0,"loss":1,"l1":1,"l2":0,"lreg":0,"gamma":0.5,"v_r":3,"v_b":5,"e_r":0,"agreement":1,"teacher_entropy_thresh":null,"student_entropy_thresh":null,"alpha":[1],"train_acc":0.5,"val_acc":0.5,"test_acc":0.5}|v_b=5 > v_r=3' \
  '{"ev":"serve_batch","t_ms":1,"requests":1,"nodes":2,"hits":1,"misses":0,"exec_ms":0.1,"lat_ms":[0.1]}|hits=1 + misses=0 != nodes=2'; do
  { cat "$GUARD_DIR/on.jsonl"; printf '%s\n' "${bad%|*}"; } > "$GUARD_DIR/bad.jsonl"
  if $RDD report "$GUARD_DIR/bad.jsonl" >/dev/null 2> "$GUARD_DIR/bad.err"; then
    echo "trace validator: accepted a trace with a bad line (${bad#*|})" >&2; exit 1
  fi
  grep -q "line $BAD_LINE: .*${bad#*|}" "$GUARD_DIR/bad.err" \
    || { echo "trace validator: error does not name line $BAD_LINE and ${bad#*|}" >&2; exit 1; }
done

echo "==> instrumentation overhead guard (disabled recorder: zero-alloc, cheap)"
env -u RDD_TRACE cargo test -q --release -p rdd-obs --test overhead

echo "==> report smoke + perf-regression gate"
# `rdd report` must render the hierarchical self-time attribution from the
# traced run, with self-times that cannot exceed the wall clock; then its
# gate diffs the same trace against the committed baseline (generous
# tolerances — it exists to catch order-of-magnitude regressions, not
# machine-to-machine noise) and must prove it can fire via --inject.
REPORT="$($RDD report "$GUARD_DIR/on.jsonl")"
grep -q "Kernel self-time attribution" <<< "$REPORT" \
  || { echo "report smoke: missing self-time attribution section" >&2; exit 1; }
grep -q "self-time total" <<< "$REPORT" \
  || { echo "report smoke: missing self-time footer" >&2; exit 1; }
$RDD report "$GUARD_DIR/on.jsonl" --gate tools/bench_baseline.json \
  --tol-default 300 --floor-ms 0.25
$RDD report "$GUARD_DIR/on.jsonl" --gate "$GUARD_DIR/on.jsonl" --tol-default 75 --floor-ms 0.01
if $RDD report "$GUARD_DIR/on.jsonl" --gate "$GUARD_DIR/on.jsonl" \
    --tol-default 75 --floor-ms 0.01 --inject 2.0 > "$GUARD_DIR/inject.txt" 2>&1; then
  echo "report gate: injected 2x regression was not caught" >&2
  exit 1
fi
grep -q "REGRESSED" "$GUARD_DIR/inject.txt" \
  || { echo "report gate: the injected run failed without a REGRESSED row" >&2; exit 1; }

echo "==> every bench binary flushes telemetry at exit"
# A traced paper binary must leave its kernel snapshot in the trace.
RDD_TRIALS=1 RDD_TRACE="$GUARD_DIR/figure1.jsonl" \
  cargo run -q --release -p rdd-bench --bin figure1 >/dev/null
grep -q "Kernel self-time attribution" <<< "$($RDD report "$GUARD_DIR/figure1.jsonl")" \
  || { echo "bench flush: figure1's trace has no kernel snapshot" >&2; exit 1; }

echo "==> fault-injection matrix (kill, resume, compare bitwise)"
# For each fault kind: run crash-safe under RDD_FAULT, then finish the run
# (resume for the aborting kinds, in-process recovery for nan_loss) and
# require the ensemble predictions to be byte-identical to a clean run.
FAULT_DIR="$GUARD_DIR/faults"
mkdir -p "$FAULT_DIR"
$RDD train tiny --models 2 --pred-out "$FAULT_DIR/clean.txt" >/dev/null

for fault in panic@member:1 io_fail@ckpt:2; do
  tag="${fault%%@*}"
  if RDD_FAULT="$fault" $RDD train tiny --models 2 \
      --run-dir "$FAULT_DIR/run-$tag" >/dev/null 2>&1; then
    echo "fault matrix: $fault did not abort the run" >&2
    exit 1
  fi
  $RDD resume "$FAULT_DIR/run-$tag" --pred-out "$FAULT_DIR/$tag.txt" >/dev/null
  cmp "$FAULT_DIR/clean.txt" "$FAULT_DIR/$tag.txt" \
    || { echo "fault matrix: $fault resume diverged from clean run" >&2; exit 1; }
done

RDD_FAULT=nan_loss@epoch:7 $RDD train tiny --models 2 \
  --run-dir "$FAULT_DIR/run-nan" --pred-out "$FAULT_DIR/nan_loss.txt" >/dev/null
cmp "$FAULT_DIR/clean.txt" "$FAULT_DIR/nan_loss.txt" \
  || { echo "fault matrix: nan_loss recovery diverged from clean run" >&2; exit 1; }

echo "==> serve smoke (train, export, serve, compare bitwise)"
# Distill a completed crash-safe run into an artifact, serve one request per
# node through the micro-batching engine, and require the served probability
# rows to be byte-identical to the offline ensemble dump.
SERVE_DIR="$GUARD_DIR/serve"
mkdir -p "$SERVE_DIR"
$RDD train tiny --models 2 --run-dir "$SERVE_DIR/run" >/dev/null
$RDD export "$SERVE_DIR/run" "$SERVE_DIR/model.artifact" >/dev/null
$RDD artifact-info "$SERVE_DIR/model.artifact" \
  --proba-out "$SERVE_DIR/offline.proba" >/dev/null
NODES="$(awk 'END { print NR }' "$SERVE_DIR/offline.proba")"
awk -v n="$NODES" 'BEGIN { for (i = 0; i < n; i++) printf "{\"id\":%d,\"nodes\":[%d]}\n", i, i }' \
  > "$SERVE_DIR/requests.jsonl"
RDD_TRACE="$SERVE_DIR/serve.jsonl" $RDD serve --artifact "$SERVE_DIR/model.artifact" \
  --batch 16 --metrics-every 1 --proba-out "$SERVE_DIR/served.proba" \
  < "$SERVE_DIR/requests.jsonl" > "$SERVE_DIR/replies.jsonl" 2>/dev/null
cmp "$SERVE_DIR/offline.proba" "$SERVE_DIR/served.proba" \
  || { echo "serve smoke: served rows diverged from offline ensemble" >&2; exit 1; }
SERVE_REPORT="$($RDD report "$SERVE_DIR/serve.jsonl")"
grep -q "Serving" <<< "$SERVE_REPORT" \
  || { echo "serve smoke: report missing Serving section" >&2; exit 1; }
# The rolling-window heartbeat must reach the trace (at least the final
# at-EOF beat) and render in the report's serving section.
grep -q '"ev":"serve_metrics"' "$SERVE_DIR/serve.jsonl" \
  || { echo "serve smoke: no serve_metrics heartbeat in trace" >&2; exit 1; }
grep -q "Serve heartbeats" <<< "$SERVE_REPORT" \
  || { echo "serve smoke: report missing serve heartbeats section" >&2; exit 1; }

echo "==> wire robustness (bad lines get typed errors, the session keeps serving)"
# One stream: a good request, a line that is not UTF-8, an id of 2^53+1
# (an f64 cannot hold it exactly), an id-less request, and a second good
# request. Through both serve loops, every line must get exactly one reply,
# the two bad lines typed errors, the id-less request the next id, and the
# served rows must match the offline ensemble bitwise. An unknown option
# (including the removed --delay-ms) must fail the run, naming the option.
WIRE_DIR="$GUARD_DIR/wire"
mkdir -p "$WIRE_DIR"
printf '{"id":0,"nodes":[0]}\n{"id":7,"nodes":[\377]}\n{"id":9007199254740993,"nodes":[1]}\n{"nodes":[1]}\n{"id":2,"nodes":[2]}\n' \
  > "$WIRE_DIR/requests.jsonl"
head -n 3 "$SERVE_DIR/offline.proba" > "$WIRE_DIR/offline.proba"
for workers in 1 2; do
  $RDD serve --artifact "$SERVE_DIR/model.artifact" --workers "$workers" \
    --proba-out "$WIRE_DIR/served$workers.proba" \
    < "$WIRE_DIR/requests.jsonl" > "$WIRE_DIR/replies$workers.jsonl" 2>/dev/null \
    || { echo "wire gate: serve exited non-zero on bad lines (workers $workers)" >&2; exit 1; }
  REPLIES="$(wc -l < "$WIRE_DIR/replies$workers.jsonl")"
  [ "$REPLIES" -eq 5 ] \
    || { echo "wire gate: $REPLIES replies for 5 lines (workers $workers)" >&2; exit 1; }
  [ "$(grep -c '"error"' "$WIRE_DIR/replies$workers.jsonl")" -eq 2 ] \
    || { echo "wire gate: expected exactly 2 error replies (workers $workers)" >&2; exit 1; }
  grep -q 'bad request: byte 17 of the line is not UTF-8' "$WIRE_DIR/replies$workers.jsonl" \
    || { echo "wire gate: no typed error for the non-UTF-8 line (workers $workers)" >&2; exit 1; }
  grep -q "bad request: 'id' must be at most 9007199254740991" "$WIRE_DIR/replies$workers.jsonl" \
    || { echo "wire gate: no typed error for the 2^53+1 id (workers $workers)" >&2; exit 1; }
  grep -q '"id":1,"kind":"node","nodes":\[1\]' "$WIRE_DIR/replies$workers.jsonl" \
    || { echo "wire gate: id-less request not answered as id 1 (workers $workers)" >&2; exit 1; }
  cmp "$WIRE_DIR/offline.proba" "$WIRE_DIR/served$workers.proba" \
    || { echo "wire gate: served rows diverged from offline ensemble (workers $workers)" >&2; exit 1; }
  # After the largest exact id, an id-less request has no id left to take:
  # it gets a typed error, never a reply under an id above 2^53-1.
  printf '{"id":9007199254740991,"nodes":[1]}\n{"nodes":[2]}\n{"nodes":[3]}\n' \
    | $RDD serve --artifact "$SERVE_DIR/model.artifact" --workers "$workers" \
      > "$WIRE_DIR/maxid$workers.jsonl" 2>/dev/null \
    || { echo "wire gate: serve exited non-zero after the largest id (workers $workers)" >&2; exit 1; }
  [ "$(grep -c "send an explicit 'id'" "$WIRE_DIR/maxid$workers.jsonl")" -eq 2 ] \
    && [ "$(grep -c '"id":9007199254740991,' "$WIRE_DIR/maxid$workers.jsonl")" -eq 1 ] \
    || { echo "wire gate: id-less requests after id 2^53-1 not rejected (workers $workers)" >&2; exit 1; }
done
for opt in --wrokers --delay-ms; do
  if $RDD serve --artifact "$SERVE_DIR/model.artifact" "$opt" 2 \
      < /dev/null > /dev/null 2> "$WIRE_DIR/unknown.err"; then
    echo "wire gate: serve accepted unknown option $opt" >&2; exit 1
  fi
  grep -q "unknown option $opt" "$WIRE_DIR/unknown.err" \
    || { echo "wire gate: error for $opt does not name it" >&2; exit 1; }
done

echo "==> SIMD-equivalence gate (RDD_SIMD=off vs auto, compare bitwise)"
# RDD_SIMD=off must route every kernel through the verbatim pre-SIMD scalar
# bodies; the AVX2 tier is allowed bounded-ULP drift inside the kernels
# with a hand-written AVX2 body, but the tiny end-to-end pipeline must come
# out prediction-identical (the equivalence property tests bound the
# per-kernel drift; this catches any dispatch-path divergence end to end).
SIMD_DIR="$GUARD_DIR/simd"
mkdir -p "$SIMD_DIR"
RDD_SIMD=off $RDD train tiny --models 2 --pred-out "$SIMD_DIR/off.txt" >/dev/null
RDD_SIMD=auto $RDD train tiny --models 2 --pred-out "$SIMD_DIR/auto.txt" >/dev/null
cmp "$SIMD_DIR/off.txt" "$SIMD_DIR/auto.txt" \
  || { echo "simd gate: RDD_SIMD=auto predictions diverged from scalar" >&2; exit 1; }
# And off-tier training must be bitwise-stable run to run (the scalar
# oracle itself is deterministic).
RDD_SIMD=off $RDD train tiny --models 2 --pred-out "$SIMD_DIR/off2.txt" >/dev/null
cmp "$SIMD_DIR/off.txt" "$SIMD_DIR/off2.txt" \
  || { echo "simd gate: RDD_SIMD=off is not deterministic" >&2; exit 1; }
# RDD_SIMD takes auto|off only: a retired tier name (sse2) warns, naming
# the accepted values, and keeps auto.
RDD_SIMD=sse2 $RDD train tiny --models 2 --pred-out "$SIMD_DIR/sse2.txt" \
  >/dev/null 2> "$SIMD_DIR/sse2.err"
grep -qF 'RDD_SIMD="sse2" is invalid (expected auto|off)' "$SIMD_DIR/sse2.err" \
  || { echo "simd gate: RDD_SIMD=sse2 was accepted without a warning" >&2; exit 1; }
cmp "$SIMD_DIR/auto.txt" "$SIMD_DIR/sse2.txt" \
  || { echo "simd gate: RDD_SIMD=sse2 did not fall back to auto" >&2; exit 1; }

echo "==> v2q serve smoke (export --quantize, drift bound, serve, compare)"
# Quantized export of the serve-smoke run: the v2q artifact must load, stay
# within the measured ULP drift bound of its v1 twin, be meaningfully
# smaller, and serve rows byte-identical to its own offline dump (serving
# is deterministic given one artifact; only the quantization is lossy).
# The drift of the served proba rows measures ~310,000 ULPs on both SIMD
# tiers; the bound leaves ~30% headroom and the measured line is printed.
$RDD export "$SERVE_DIR/run" "$SERVE_DIR/model.v2q" --quantize int8 >/dev/null
V2Q_INFO="$($RDD artifact-info "$SERVE_DIR/model.v2q" --reference "$SERVE_DIR/model.artifact" \
  --assert-max-ulp 400000 --proba-out "$SERVE_DIR/offline_v2q.proba")"
grep 'max ulp' <<< "$V2Q_INFO"
V1_BYTES="$(wc -c < "$SERVE_DIR/model.artifact")"
V2Q_BYTES="$(wc -c < "$SERVE_DIR/model.v2q")"
[ "$((V2Q_BYTES * 10))" -lt "$((V1_BYTES * 7))" ] \
  || { echo "v2q smoke: quantized artifact not smaller ($V2Q_BYTES vs $V1_BYTES bytes)" >&2; exit 1; }
for workers in 1 2; do
  $RDD serve --artifact "$SERVE_DIR/model.v2q" --workers "$workers" \
    --batch 16 --proba-out "$SERVE_DIR/served_v2q$workers.proba" \
    < "$SERVE_DIR/requests.jsonl" > "$SERVE_DIR/replies_v2q$workers.jsonl" 2>/dev/null
  cmp "$SERVE_DIR/offline_v2q.proba" "$SERVE_DIR/served_v2q$workers.proba" \
    || { echo "v2q smoke: served rows diverged from offline v2q dump (workers $workers)" >&2; exit 1; }
done

echo "==> multi-worker serve smoke (serve --workers 2, compare bitwise)"
# The same artifact served through 2 pool workers must produce probability
# rows byte-identical to the offline dump, as one worker does: concurrency
# is pure plumbing.
$RDD serve --artifact "$SERVE_DIR/model.artifact" --workers 2 \
  --batch 16 --proba-out "$SERVE_DIR/served_pooled.proba" \
  < "$SERVE_DIR/requests.jsonl" > "$SERVE_DIR/replies_pooled.jsonl" 2>/dev/null
cmp "$SERVE_DIR/offline.proba" "$SERVE_DIR/served_pooled.proba" \
  || { echo "pooled smoke: pooled rows diverged from offline ensemble" >&2; exit 1; }

echo "==> hot-swap gate (swap artifact mid-stream, zero drops, per-generation bitwise)"
# Serve from a FIFO so the request stream can pause mid-flight: first half
# against artifact A, overwrite the watched file with artifact B, wait for
# the swap to land, then the second half. Every request must be answered
# (zero drops), both generations must appear, each served row must match
# its own generation's offline dump bitwise, and the swap must reach the
# trace.
SWAP_DIR="$GUARD_DIR/swap"
mkdir -p "$SWAP_DIR"
$RDD train tiny --models 2 --seed 7 --run-dir "$SWAP_DIR/run_b" >/dev/null
$RDD export "$SWAP_DIR/run_b" "$SWAP_DIR/b.artifact" >/dev/null
$RDD artifact-info "$SWAP_DIR/b.artifact" --proba-out "$SWAP_DIR/offline_b.proba" >/dev/null
cmp -s "$SERVE_DIR/offline.proba" "$SWAP_DIR/offline_b.proba" \
  && { echo "hot-swap gate: seed-7 artifact is identical to seed-default; gate is vacuous" >&2; exit 1; }
cp "$SERVE_DIR/model.artifact" "$SWAP_DIR/watch.artifact"
HALF=$((NODES / 2))
mkfifo "$SWAP_DIR/reqs.fifo"
RDD_TRACE="$SWAP_DIR/swap.jsonl" $RDD serve --artifact "$SWAP_DIR/watch.artifact" \
  --workers 2 --batch 16 --watch-artifact --served-out "$SWAP_DIR/served_gen.txt" \
  < "$SWAP_DIR/reqs.fifo" > "$SWAP_DIR/replies.jsonl" 2> "$SWAP_DIR/serve.err" &
SERVE_PID=$!
exec 3> "$SWAP_DIR/reqs.fifo"
head -n "$HALF" "$SERVE_DIR/requests.jsonl" >&3
# Wait for the first half to be fully served before swapping, so the
# generation split is deterministic.
for _ in $(seq 1 100); do
  [ "$(wc -l < "$SWAP_DIR/replies.jsonl")" -ge "$HALF" ] && break
  sleep 0.1
done
cp "$SWAP_DIR/b.artifact" "$SWAP_DIR/watch.artifact"
for _ in $(seq 1 100); do
  grep -q "swapped" "$SWAP_DIR/serve.err" && break
  sleep 0.1
done
grep -q "swapped" "$SWAP_DIR/serve.err" \
  || { echo "hot-swap gate: swap never fired" >&2; kill "$SERVE_PID"; exit 1; }
tail -n +"$((HALF + 1))" "$SERVE_DIR/requests.jsonl" >&3
exec 3>&-
wait "$SERVE_PID" || { echo "hot-swap gate: serve exited non-zero" >&2; exit 1; }
REPLIES="$(wc -l < "$SWAP_DIR/replies.jsonl")"
[ "$REPLIES" -eq "$NODES" ] \
  || { echo "hot-swap gate: $REPLIES replies for $NODES requests (dropped some)" >&2; exit 1; }
if grep -q '"error"' "$SWAP_DIR/replies.jsonl"; then
  echo "hot-swap gate: error replies during swap" >&2; exit 1
fi
GENS="$(awk '{ print $1 }' "$SWAP_DIR/served_gen.txt" | sort -u | tr '\n' ' ')"
[ "$GENS" = "0 1 " ] \
  || { echo "hot-swap gate: expected generations 0 and 1, saw: $GENS" >&2; exit 1; }
# Join each served row against its own generation's offline dump: columns
# are <generation> <id> <node> <floats...>; generation 0 rows must match
# artifact A, generation 1 rows artifact B, bitwise.
awk 'FNR == 1 { f++ }
     f == 1 { a[FNR - 1] = $0 }
     f == 2 { b[FNR - 1] = $0 }
     f == 3 {
       row = ""
       for (i = 4; i <= NF; i++) row = row (i > 4 ? " " : "") $i
       want = ($1 == 0 ? a[$3] : b[$3])
       if (row != want) { print "generation " $1 " row for node " $3 " diverged"; bad = 1 }
     }
     END { exit bad }' \
  "$SERVE_DIR/offline.proba" "$SWAP_DIR/offline_b.proba" "$SWAP_DIR/served_gen.txt" \
  || { echo "hot-swap gate: served rows diverged from their generation's dump" >&2; exit 1; }
grep -q '"ev":"swap"' "$SWAP_DIR/swap.jsonl" \
  || { echo "hot-swap gate: no swap event in trace" >&2; exit 1; }
grep -q "Swap:" <<< "$($RDD report "$SWAP_DIR/swap.jsonl")" \
  || { echo "hot-swap gate: report missing swap line" >&2; exit 1; }

echo "==> serve chaos gate (injected panics: every request answered, bitwise, supervision in trace)"
# Panics injected into the worker loop and the batch kernel must be
# supervised at every worker count, the default one worker included: the
# claimed batch is requeued, the worker respawned, and the stream finishes
# with every request answered and rows bitwise identical to the offline
# ensemble. Both panic and respawn must reach the trace.
CHAOS_DIR="$GUARD_DIR/chaos"
mkdir -p "$CHAOS_DIR"
for workers in 1 2; do
  for site in serve_worker serve_batch; do
    RUN="$CHAOS_DIR/$site.w$workers"
    RDD_FAULT="panic@$site:0x2" RDD_TRACE="$RUN.jsonl" $RDD serve \
      --artifact "$SERVE_DIR/model.artifact" --workers "$workers" --batch 16 \
      --proba-out "$RUN.proba" \
      < "$SERVE_DIR/requests.jsonl" > "$RUN.replies.jsonl" 2>/dev/null \
      || { echo "chaos gate: serve exited non-zero under panic@$site (workers $workers)" >&2; exit 1; }
    REPLIES="$(wc -l < "$RUN.replies.jsonl")"
    [ "$REPLIES" -eq "$NODES" ] \
      || { echo "chaos gate: $REPLIES replies for $NODES requests under panic@$site (workers $workers)" >&2; exit 1; }
    if grep -q '"error"' "$RUN.replies.jsonl"; then
      echo "chaos gate: error replies under panic@$site, workers $workers (retry budget should absorb it)" >&2; exit 1
    fi
    cmp "$SERVE_DIR/offline.proba" "$RUN.proba" \
      || { echo "chaos gate: rows diverged from offline ensemble under panic@$site (workers $workers)" >&2; exit 1; }
    grep -q '"ev":"worker_panic"' "$RUN.jsonl" \
      || { echo "chaos gate: no worker_panic event under panic@$site (workers $workers)" >&2; exit 1; }
    grep -q '"ev":"worker_respawn"' "$RUN.jsonl" \
      || { echo "chaos gate: no worker_respawn event under panic@$site (workers $workers)" >&2; exit 1; }
    $RDD report "$RUN.jsonl" >/dev/null
  done
done
# A corrupt artifact must be detected at load time as a typed checksum
# error, never served silently: flip one byte of a copy in place.
cp "$SERVE_DIR/model.artifact" "$CHAOS_DIR/corrupt.artifact"
printf '#' | dd of="$CHAOS_DIR/corrupt.artifact" bs=1 seek=100 count=1 conv=notrunc 2>/dev/null
if $RDD serve --artifact "$CHAOS_DIR/corrupt.artifact" \
  --batch 16 < "$SERVE_DIR/requests.jsonl" >/dev/null 2> "$CHAOS_DIR/corrupt.err"; then
  echo "chaos gate: corrupt artifact served without complaint" >&2; exit 1
fi
grep -q "checksum mismatch" "$CHAOS_DIR/corrupt.err" \
  || { echo "chaos gate: corrupt artifact error names no checksum mismatch" >&2; exit 1; }

echo "==> swap-rollback gate (io_fail@swap_load: old generation stays live, retry recovers)"
# The watcher's first replacement load fails with an injected I/O error:
# the pool must keep the current generation live (swap_failed in the
# trace, rollback note on stderr), then the backoff retry loads the same
# file successfully and the swap lands. Every request is still answered.
ROLL_DIR="$GUARD_DIR/rollback"
mkdir -p "$ROLL_DIR"
cp "$SERVE_DIR/model.artifact" "$ROLL_DIR/watch.artifact"
mkfifo "$ROLL_DIR/reqs.fifo"
RDD_FAULT=io_fail@swap_load:0x1 RDD_TRACE="$ROLL_DIR/roll.jsonl" $RDD serve \
  --artifact "$ROLL_DIR/watch.artifact" --workers 2 --batch 16 --watch-artifact \
  --served-out "$ROLL_DIR/served_gen.txt" \
  < "$ROLL_DIR/reqs.fifo" > "$ROLL_DIR/replies.jsonl" 2> "$ROLL_DIR/serve.err" &
ROLL_PID=$!
exec 4> "$ROLL_DIR/reqs.fifo"
head -n "$HALF" "$SERVE_DIR/requests.jsonl" >&4
for _ in $(seq 1 100); do
  [ "$(wc -l < "$ROLL_DIR/replies.jsonl")" -ge "$HALF" ] && break
  sleep 0.1
done
cp "$SWAP_DIR/b.artifact" "$ROLL_DIR/watch.artifact"
for _ in $(seq 1 100); do
  grep -q "swapped" "$ROLL_DIR/serve.err" && break
  sleep 0.1
done
grep -q "swapped" "$ROLL_DIR/serve.err" \
  || { echo "swap-rollback gate: retry never landed the swap" >&2; kill "$ROLL_PID"; exit 1; }
grep -q "retrying in" "$ROLL_DIR/serve.err" \
  || { echo "swap-rollback gate: no rollback note for the failed load" >&2; kill "$ROLL_PID"; exit 1; }
tail -n +"$((HALF + 1))" "$SERVE_DIR/requests.jsonl" >&4
exec 4>&-
wait "$ROLL_PID" || { echo "swap-rollback gate: serve exited non-zero" >&2; exit 1; }
REPLIES="$(wc -l < "$ROLL_DIR/replies.jsonl")"
[ "$REPLIES" -eq "$NODES" ] \
  || { echo "swap-rollback gate: $REPLIES replies for $NODES requests" >&2; exit 1; }
if grep -q '"error"' "$ROLL_DIR/replies.jsonl"; then
  echo "swap-rollback gate: error replies during rollback" >&2; exit 1
fi
GENS="$(awk '{ print $1 }' "$ROLL_DIR/served_gen.txt" | sort -u | tr '\n' ' ')"
[ "$GENS" = "0 1 " ] \
  || { echo "swap-rollback gate: expected generations 0 and 1, saw: $GENS" >&2; exit 1; }
grep -q '"ev":"swap_failed"' "$ROLL_DIR/roll.jsonl" \
  || { echo "swap-rollback gate: no swap_failed event in trace" >&2; exit 1; }
grep -q '"ev":"swap"' "$ROLL_DIR/roll.jsonl" \
  || { echo "swap-rollback gate: no swap event after recovery" >&2; exit 1; }
$RDD report "$ROLL_DIR/roll.jsonl" >/dev/null

echo "==> breaker smoke (slow batches trip the breaker open, probes close it)"
# A paced request stream against an injected-slow batch kernel must trip
# the circuit breaker open (typed Overloaded rejections), half-open after
# the cooldown, and close once probes come back fast. Every request still
# gets exactly one reply, and the state transitions reach the trace.
BRK_DIR="$GUARD_DIR/breaker"
mkdir -p "$BRK_DIR"
awk -v n="$NODES" 'BEGIN { for (i = 0; i < 400; i++) printf "{\"id\":%d,\"nodes\":[%d]}\n", i, i % n }' \
  > "$BRK_DIR/requests.jsonl"
while IFS= read -r line; do printf '%s\n' "$line"; sleep 0.01; done < "$BRK_DIR/requests.jsonl" \
  | RDD_FAULT=slow@serve_batch:0x20 RDD_TRACE="$BRK_DIR/breaker.jsonl" $RDD serve \
      --artifact "$SERVE_DIR/model.artifact" --workers 2 --batch 4 \
      --breaker-p99-ms 5 --metrics-every 1 \
      > "$BRK_DIR/replies.jsonl" 2> "$BRK_DIR/serve.err" \
  || { echo "breaker smoke: serve exited non-zero" >&2; exit 1; }
REPLIES="$(wc -l < "$BRK_DIR/replies.jsonl")"
[ "$REPLIES" -eq 400 ] \
  || { echo "breaker smoke: $REPLIES replies for 400 requests" >&2; exit 1; }
grep -q '"state":"open","from":"closed"' "$BRK_DIR/breaker.jsonl" \
  || { echo "breaker smoke: breaker never tripped open" >&2; exit 1; }
grep -q '"state":"half_open"' "$BRK_DIR/breaker.jsonl" \
  || { echo "breaker smoke: breaker never half-opened" >&2; exit 1; }
grep -q '"state":"closed","from":"half_open"' "$BRK_DIR/breaker.jsonl" \
  || { echo "breaker smoke: breaker never closed after recovery" >&2; exit 1; }
grep -q "overloaded" "$BRK_DIR/replies.jsonl" \
  || { echo "breaker smoke: no typed Overloaded rejections while open" >&2; exit 1; }
grep -q "Breaker:" <<< "$($RDD report "$BRK_DIR/breaker.jsonl")" \
  || { echo "breaker smoke: report missing Breaker lines" >&2; exit 1; }

echo "==> distill gate (distill-mlp, v3 artifact, ByFeatures served bitwise vs offline student)"
# Distill the frozen cora-sim ensemble into the graph-free MLP student:
# the accuracy gap to the teacher must stay bounded, the v3 artifact must
# advertise feature serving (and refuse node requests), and a served
# `{"features": ...}` stream must come back byte-identical to the offline
# student forward over the same rows, and distilling the same run twice
# must write the same student. Feature values are exact multiples
# of 1/64 so the JSON (f64) and TSV (f32) parse paths cannot diverge.
KD_DIR="$GUARD_DIR/distill"
mkdir -p "$KD_DIR"
$RDD train cora --models 2 --run-dir "$KD_DIR/run" >/dev/null
$RDD distill-mlp "$KD_DIR/run" "$KD_DIR/student.artifact" > "$KD_DIR/distill.txt"
grep -q "accuracy gap" "$KD_DIR/distill.txt" \
  || { echo "distill gate: no accuracy-gap table" >&2; exit 1; }
GAP="$(awk '/accuracy gap:/ { gsub(/[+%]/, "", $3); print $3 }' "$KD_DIR/distill.txt")"
awk -v g="$GAP" 'BEGIN { exit !(g <= 20.0) }' \
  || { echo "distill gate: student trails the ensemble by $GAP% (> 20%)" >&2; exit 1; }
# Distillation is deterministic per seed: a second distill of the same run
# directory must write a byte-identical student (same checksum line).
$RDD distill-mlp "$KD_DIR/run" "$KD_DIR/student2.artifact" > "$KD_DIR/distill2.txt"
KD_SUM="$(grep 'checksum:' "$KD_DIR/distill.txt")"
[ -n "$KD_SUM" ] && [ "$KD_SUM" = "$(grep 'checksum:' "$KD_DIR/distill2.txt")" ] \
  || { echo "distill gate: two distills of one run directory wrote different students" >&2; exit 1; }
$RDD artifact-info "$KD_DIR/student.artifact" > "$KD_DIR/info.txt"
grep -q "serves:      nodes no, features yes" "$KD_DIR/info.txt" \
  || { echo "distill gate: v3 artifact capabilities wrong" >&2; exit 1; }
IN_DIM="$(awk '/^student:/ { print $2 }' "$KD_DIR/info.txt")"
awk -v d="$IN_DIM" 'BEGIN {
  for (i = 0; i < 32; i++) {
    for (j = 0; j < d; j++) printf "%s%.6f", (j ? " " : ""), ((i * 31 + j * 17) % 64) / 64
    print ""
  }
}' > "$KD_DIR/rows.tsv"
awk '{
  printf "{\"id\":%d,\"features\":[", NR - 1
  for (i = 1; i <= NF; i++) printf "%s%s", (i > 1 ? "," : ""), $i
  print "]}"
}' "$KD_DIR/rows.tsv" > "$KD_DIR/requests.jsonl"
$RDD artifact-info "$KD_DIR/student.artifact" \
  --features-in "$KD_DIR/rows.tsv" --proba-out "$KD_DIR/offline_student.proba" >/dev/null
for workers in 1 2; do
  $RDD serve --artifact "$KD_DIR/student.artifact" --workers "$workers" --batch 8 \
    --proba-out "$KD_DIR/served$workers.proba" \
    < "$KD_DIR/requests.jsonl" > "$KD_DIR/replies$workers.jsonl" 2>/dev/null
  cmp "$KD_DIR/offline_student.proba" "$KD_DIR/served$workers.proba" \
    || { echo "distill gate: served feature rows diverged from offline student (workers $workers)" >&2; exit 1; }
  [ "$(grep -c '"kind":"features"' "$KD_DIR/replies$workers.jsonl")" -eq 32 ] \
    || { echo "distill gate: replies missing kind=features (workers $workers)" >&2; exit 1; }
done
# The same 32 rows again with JSON whitespace and `features` before `id`,
# plus one row holding 1e39 (a finite f64 that rounds to +inf as an f32):
# that line gets exactly one typed error naming finiteness, and the 32 rows
# still come back byte-identical to the offline student.
awk '{
  printf " { \"features\" : [ "
  for (i = 1; i <= NF; i++) printf "%s%s", (i > 1 ? " ,\t" : ""), $i
  printf " ] , \"id\" : %d }\n", NR - 1
  if (NR == 16) {
    printf "{\"id\":100,\"features\":[1e39"
    for (i = 2; i <= NF; i++) printf ",%s", $i
    print "]}"
  }
}' "$KD_DIR/rows.tsv" > "$KD_DIR/requests_ws.jsonl"
RDD_TRACE="$KD_DIR/serve_ws.jsonl" $RDD serve --artifact "$KD_DIR/student.artifact" --batch 8 \
  --proba-out "$KD_DIR/served_ws.proba" \
  < "$KD_DIR/requests_ws.jsonl" > "$KD_DIR/replies_ws.jsonl" 2>/dev/null
cmp "$KD_DIR/offline_student.proba" "$KD_DIR/served_ws.proba" \
  || { echo "distill gate: reordered/whitespace feature rows diverged from offline student" >&2; exit 1; }
[ "$(wc -l < "$KD_DIR/replies_ws.jsonl")" -eq 33 ] \
  && [ "$(grep -c '"kind":"features"' "$KD_DIR/replies_ws.jsonl")" -eq 32 ] \
  && [ "$(grep -c '"error"' "$KD_DIR/replies_ws.jsonl")" -eq 1 ] \
  || { echo "distill gate: expected 32 feature replies and 1 error for 33 lines" >&2; exit 1; }
grep -q 'bad request: feature values must be finite f32s' "$KD_DIR/replies_ws.jsonl" \
  || { echo "distill gate: no typed finiteness error for the 1e39 row" >&2; exit 1; }
# The traced feature session validates, and the report shows the per-line
# parse time next to the request latency.
KD_REPORT="$($RDD report "$KD_DIR/serve_ws.jsonl")" \
  || { echo "distill gate: traced feature serve session does not validate" >&2; exit 1; }
grep -q "serve.parse_ns" <<< "$KD_REPORT" \
  || { echo "distill gate: report has no serve.parse_ns histogram" >&2; exit 1; }
# Node requests against the student must fail with the typed error, not rows.
printf '{"id":0,"nodes":[0]}\n' | $RDD serve --artifact "$KD_DIR/student.artifact" \
  2>/dev/null | grep -q "node-id requests unsupported" \
  || { echo "distill gate: node request against mlp artifact not a typed error" >&2; exit 1; }

echo "==> traced benchmark smoke (rddbench --trace 1 builds and runs the probe)"
# The per-layer probe (rddbench/probe/main.rs) links the library crates'
# public API, and no stage above compiles it, so a renamed or deleted public
# item would break only `rddbench --trace 1`. One short traced run builds
# the probe and runs it end to end; a non-zero exit fails the gate.
cargo run --release --offline -q --manifest-path rddbench/Cargo.toml -- \
  --workload serve-features --seed 1 --seconds 1 --trace 1 > "$GUARD_DIR/rddbench_trace.txt" \
  || { cat "$GUARD_DIR/rddbench_trace.txt" >&2; echo "traced benchmark: rddbench --trace 1 failed" >&2; exit 1; }

echo "ci.sh: all gates passed"
