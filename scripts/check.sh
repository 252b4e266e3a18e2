#!/usr/bin/env bash
# Pre-flight quality gate: formatting, lints, and the tier-1 suite.
#
# Usage: scripts/check.sh
#
# Runs the same checks CI runs, in the same order, stopping at the first
# failure. Intended both standalone and as the pre-flight for
# scripts/run_all_experiments.sh — a multi-hour experiment run should
# never start on a tree that fails a sub-minute gate.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check" >&2
cargo fmt --check

echo "== cargo clippy --workspace -D warnings" >&2
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test" >&2
cargo build --release
cargo test -q

# The benchmark package (its own workspace, see perfbench/README.md)
# carries correctness tests of its own — GOLDEN equality at zero
# tolerance and a replay cell equal to its direct twin among them — so
# every simulator change is gated by them too.
echo "== benchmark tests: cargo test --manifest-path perfbench/Cargo.toml" >&2
cargo test -q --offline --manifest-path perfbench/Cargo.toml

# The trace feature gates every emission site; both halves of the cfg
# must keep building. The feature-on release build is covered above.
echo "== trace feature off: cargo build --release --no-default-features" >&2
cargo build --release -p cpe --no-default-features
cargo test -q -p cpe-core --no-default-features --lib

# Smoke the perf-gate loop end to end: a small bench must produce a
# report whose self-diff is clean at zero tolerance (the simulated
# counters are deterministic; wall-time fields are identical because the
# file is compared with itself).
echo "== bench smoke + self-diff gate" >&2
bench_out="$(mktemp -t cpe-bench-XXXXXX.json)"
scratch="$(mktemp -d -t cpe-check-XXXXXX)"
trap 'rm -f "$bench_out"; rm -rf "$scratch"' EXIT
cargo run --release --bin cpe -q -- bench --name check-smoke \
    --max 2000 --out "$bench_out" >/dev/null
cargo run --release --bin cpe -q -- diff "$bench_out" "$bench_out" \
    --tolerance 0 >/dev/null

# Soft perf gate: five bench runs at the baseline's instruction window,
# median total throughput compared against the best committed
# BENCH_baseline*.json. The tolerance is generous (60% of baseline) —
# wall time on a shared box is noisy, and this gate exists to catch
# gross regressions (an accidental debug path, a quadratic loop), not
# percent-level drift. The median run is archived as BENCH_latest.json
# (gitignored) for eyeballing finer drift.
echo "== bench perf gate: median-of-5 vs committed baseline" >&2
median_line="$(for i in 1 2 3 4 5; do
    cargo run --release --bin cpe -q -- bench --name check-perf \
        --max 20000 --out "$scratch/bench_$i.json" >/dev/null
    # The "total" object precedes "workloads", so the first
    # cycles_per_sec in the document is the suite total.
    rate="$(grep -o '"cycles_per_sec":[0-9.e+-]*' "$scratch/bench_$i.json" \
        | head -1 | cut -d: -f2)"
    echo "$rate $i"
done | sort -g | sed -n 3p)"
median_rate="${median_line% *}"
median_index="${median_line#* }"
cp "$scratch/bench_$median_index.json" BENCH_latest.json
baseline_rate=0
for baseline in BENCH_baseline*.json; do
    rate="$(grep -o '"cycles_per_sec":[0-9.e+-]*' "$baseline" \
        | head -1 | cut -d: -f2)"
    baseline_rate="$(awk -v a="$baseline_rate" -v b="$rate" \
        'BEGIN{print (b > a) ? b : a}')"
done
ratio="$(awk -v median="$median_rate" -v baseline="$baseline_rate" \
    'BEGIN{printf "%.2f", (baseline > 0) ? median / baseline : 0}')"
awk -v median="$median_rate" -v baseline="$baseline_rate" \
    'BEGIN{exit !(median >= 0.60 * baseline)}' || {
    echo "perf gate: median $median_rate cycles/s is below 60% of the" \
         "baseline $baseline_rate (ratio $ratio) — investigate before" \
         "merging" >&2
    exit 1
}
echo "   median $median_rate cycles/s vs baseline $baseline_rate" \
     "(ratio $ratio, gate 0.60)" >&2

# Golden-metrics gate: the event-driven scheduler must be invisible in
# every architectural counter. GOLDEN_metrics.json pins a two-config
# sweep (the naive 1-port floor and the 4-port high end, all default
# workloads at 20k instructions); a fresh run must match it bit for bit
# — `cpe diff` at zero tolerance, no drift budget at all. Any scheduler
# or memory-model change that alters timing by even one cycle fails
# here and must regenerate the golden file deliberately, with the diff
# in the PR.
echo "== golden metrics: zero-tolerance architectural diff" >&2
cargo run --release --bin cpe -q -- sweep --configs "1-port naive,4-port" \
    --max 20000 --no-cache --metrics-json "$scratch/golden_fresh.json" \
    >/dev/null 2>&1
cargo run --release --bin cpe -q -- diff GOLDEN_metrics.json \
    "$scratch/golden_fresh.json" --tolerance 0 >/dev/null
# `cpe diff` compares values; the renderer's promise is bytes. The fresh
# document must also be byte-identical to the committed one, so a change
# to member order, number formatting or escaping fails here too.
cmp GOLDEN_metrics.json "$scratch/golden_fresh.json"

# Execution-layer gate (see docs/EXECUTION.md): a 2-worker smoke sweep,
# then the same sweep again — the re-run must be served entirely from
# the result cache, and both the table (stdout) and the metrics
# document must be byte-identical, with `cpe diff` clean at zero
# tolerance. This is the contract `cpe sweep` rests on: worker count
# and cache state never change a byte of output.
echo "== parallel sweep smoke + cache-hit gate" >&2
sweep() {
    cargo run --release --bin cpe -q -- sweep --jobs 2 --max 2000 \
        --workloads compress,sort --cache-dir "$scratch/cache" \
        --metrics-json "$1"
}
sweep "$scratch/sweep1.json" > "$scratch/table1.txt" 2>/dev/null
sweep "$scratch/sweep2.json" > "$scratch/table2.txt" 2> "$scratch/rerun.log"
grep -q "hit rate 100.0%" "$scratch/rerun.log" || {
    echo "sweep re-run was not served fully from the cache:" >&2
    cat "$scratch/rerun.log" >&2
    exit 1
}
cmp "$scratch/table1.txt" "$scratch/table2.txt"
cargo run --release --bin cpe -q -- diff "$scratch/sweep1.json" \
    "$scratch/sweep2.json" --tolerance 0 >/dev/null

# Replay gate (see docs/REPLAY.md): the same smoke grid under
# `--backend replay` must be byte-identical to the direct run above —
# same stdout table, `cpe diff` clean at zero tolerance — while
# recording each workload's committed path exactly once before
# scheduling and reusing it for every cell (100% trace reuse: the
# footer's `reused` count equals the cell count). Replay cache entries
# are keyed apart from direct ones, so a fresh cache dir keeps every
# cell a real recomputation and the comparison honest.
echo "== replay gate: record-once sweep, zero-tolerance vs direct" >&2
cpe_bin=target/release/cpe
"$cpe_bin" sweep --jobs 2 --max 2000 --workloads compress,sort \
    --cache-dir "$scratch/cache_replay" --backend replay \
    --metrics-json "$scratch/replay.json" \
    > "$scratch/replay_table.txt" 2> "$scratch/replay.log"
cmp "$scratch/table1.txt" "$scratch/replay_table.txt"
"$cpe_bin" diff "$scratch/sweep1.json" "$scratch/replay.json" \
    --tolerance 0 >/dev/null
footer="$(grep -E 'cells in .*trace: [0-9]+ recorded, [0-9]+ reused' \
    "$scratch/replay.log" | tail -1)" || {
    echo "replay gate: no trace footer in the sweep stderr:" >&2
    cat "$scratch/replay.log" >&2
    exit 1
}
cells="$(echo "$footer" | grep -oE '^[0-9]+')"
recorded="$(echo "$footer" | grep -oE 'trace: [0-9]+' | grep -oE '[0-9]+')"
reused="$(echo "$footer" | grep -oE '[0-9]+ reused' | grep -oE '[0-9]+')"
[ "$reused" = "$cells" ] && [ "$recorded" -lt "$cells" ] || {
    echo "replay gate: expected 100% trace reuse ($cells cells), got" \
         "$recorded recorded, $reused reused" >&2
    exit 1
}

# Soft replay perf gate, same philosophy as the bench gate: the ratio
# exists to catch the replay hot path regressing to slower than direct
# (a decode path gone quadratic, a lost Arc share), not to demand a
# particular speedup. On this Test-scale smoke grid the timing core —
# which both backends pay identically — dominates each cell, so the
# wall-time ratio sits well below the 6x reduction in functional
# executions asserted above; the measured median-of-3 ratio is printed
# and recorded in BENCH_latest.json for eyeballing drift.
echo "== replay perf: median-of-3 wall-time ratio vs direct" >&2
sweep_ms() {
    local total start end
    start="$(date +%s%N)"
    "$cpe_bin" sweep --jobs 2 --max 50000 --workloads compress,sort \
        --no-cache --backend "$1" >/dev/null 2>&1
    end="$(date +%s%N)"
    echo $(( (end - start) / 1000000 ))
}
median_of_3() {
    { sweep_ms "$1"; sweep_ms "$1"; sweep_ms "$1"; } | sort -n | sed -n 2p
}
direct_ms="$(median_of_3 direct)"
replay_ms="$(median_of_3 replay)"
replay_speedup="$(awk -v d="$direct_ms" -v r="$replay_ms" \
    'BEGIN{printf "%.2f", (r > 0) ? d / r : 0}')"
sed -i "s/^{/{\"replay_sweep_speedup\":$replay_speedup,/" BENCH_latest.json
"$cpe_bin" diff BENCH_latest.json BENCH_latest.json --tolerance 0 >/dev/null
awk -v r="$replay_speedup" 'BEGIN{exit !(r >= 0.90)}' || {
    echo "replay perf gate: replay sweep ($replay_ms ms) is slower than" \
         "direct ($direct_ms ms) beyond noise (speedup $replay_speedup," \
         "gate 0.90) — investigate before merging" >&2
    exit 1
}
echo "   direct $direct_ms ms vs replay $replay_ms ms (speedup" \
     "${replay_speedup}x, soft gate 0.90; functional executions" \
     "$cells -> $recorded)" >&2

# Cycle-accounting gate (see docs/OBSERVABILITY.md "CPI stacks"): every
# cpi_stack in the fresh golden document and the smoke-sweep document
# must conserve commit slots exactly — sum(causes) == total ==
# cycles × commit_width, integer equality, no tolerance. Then the
# per-instruction pipeline view must round-trip: a pipeview export over
# a traced run has to pass the Konata validator.
echo "== CPI stacks conserve + pipeview Konata artifact" >&2
cargo run --release --bin cpe -q -- validate --cpi \
    "$scratch/golden_fresh.json" "$scratch/sweep1.json" >/dev/null
cargo run --release --bin cpe -q -- pipeview --workload compress \
    --max 2000 -o "$scratch/pipe.kanata" >/dev/null
cargo run --release --bin cpe -q -- validate "$scratch/pipe.kanata" \
    >/dev/null

# Trace-export gate (see docs/OBSERVABILITY.md "Sinks"): a traced
# profile run exported in both event formats must pass `cpe validate` —
# the Chrome trace_event document as one JSON document, the JSONL
# export line by line.
echo "== profile trace exports: Chrome and JSONL validate" >&2
"$cpe_bin" profile --workload compress --max 2000 --trace-format chrome \
    --trace-out "$scratch/profile_trace.json" >/dev/null
"$cpe_bin" profile --workload compress --max 2000 --trace-format jsonl \
    --trace-out "$scratch/profile_trace.jsonl" >/dev/null
"$cpe_bin" validate "$scratch/profile_trace.json" \
    "$scratch/profile_trace.jsonl" >/dev/null

# Hostile-input gate: no input may abort the process. A file of 200,000
# `[` once overflowed the JSON reader's stack (exit 134); `cpe validate`
# and `cpe diff` must now refuse it as a user error — exit 2 with a
# message on stderr.
echo "== hostile input: deeply nested JSON exits 2, not abort" >&2
head -c 200000 /dev/zero | tr '\0' '[' > "$scratch/deep.json"
echo '{"x":1}' > "$scratch/shallow.json"
for args in "validate $scratch/deep.json" \
    "diff $scratch/deep.json $scratch/shallow.json"; do
    status=0
    # shellcheck disable=SC2086 # the paths contain no spaces
    "$cpe_bin" $args > /dev/null 2> "$scratch/deep.err" || status=$?
    [ "$status" = 2 ] && grep -q "nesting deeper than" "$scratch/deep.err" || {
        echo "hostile-input gate: \`cpe $args\` exited $status:" >&2
        cat "$scratch/deep.err" >&2
        exit 1
    }
done

# A number beyond f64 once read as infinity, whose relative difference
# to any finite value is NaN, and `NaN > tolerance` is false: `cpe diff`
# passed `{"x":1e999}` against `{"x":5}` at zero tolerance. It must be
# refused as a user error instead.
echo "== hostile input: out-of-range JSON numbers exit 2, not match" >&2
echo '{"x":1e999}' > "$scratch/huge_number.json"
echo '{"x":5}' > "$scratch/five.json"
status=0
"$cpe_bin" diff "$scratch/huge_number.json" "$scratch/five.json" \
    --tolerance 0 > /dev/null 2> "$scratch/range.err" || status=$?
[ "$status" = 2 ] && grep -q "number out of range" "$scratch/range.err" || {
    echo "hostile-input gate: \`cpe diff\` of 1e999 against 5 exited" \
         "$status:" >&2
    cat "$scratch/range.err" >&2
    exit 1
}

# The CPER reader once trusted its header's counts: a dictionary length
# of 0xFFFF_FFFF made it reserve 64 GiB (exit 134), and a payload length
# of u64::MAX overflowed its bounds check. Both 29/37-byte files must be
# refused as user errors by every verb that reads a trace.
echo "== hostile input: CPER headers with huge counts exit 2, not abort" >&2
header='CPER\001\000\000\000\000\000\000\000\000\000\000\000\001'
header="$header"'\377\377\377\377\377\377\377\377'
printf "$header"'\377\377\377\377' > "$scratch/huge_dict.cper"
printf "$header"'\000\000\000\000\377\377\377\377\377\377\377\377' \
    > "$scratch/huge_payload.cper"
for file in huge_dict huge_payload; do
    for verb in validate "trace info"; do
        status=0
        # shellcheck disable=SC2086 # `trace info` is two words on purpose
        "$cpe_bin" $verb "$scratch/$file.cper" > /dev/null \
            2> "$scratch/cper.err" || status=$?
        [ "$status" = 2 ] && grep -q "truncated at byte offset" \
            "$scratch/cper.err" || {
            echo "hostile-input gate: \`cpe $verb $file.cper\` exited" \
                 "$status:" >&2
            cat "$scratch/cper.err" >&2
            exit 1
        }
    done
done

echo "all checks passed" >&2
