#!/usr/bin/env sh
# Benchmark smoke guard: runs the perf-trajectory benchmarks
# (BenchmarkDPar2 end-to-end, BenchmarkDPar2IterationAllocs for the
# allocation budget, BenchmarkDPar2TallSlice for the sharded stage-1 path,
# BenchmarkAbsorb for the streaming absorb path, BenchmarkFactorBatch for
# the fused batched small-SVD sweep, BenchmarkEngineContendedQueue for
# the admission scheduler, BenchmarkServiceDecomposeRoundTrip for the
# HTTP front end's transport overhead, BenchmarkServiceCacheHit for a
# served cache hit at perfbench serve-mixed's size, and BenchmarkRegionJoin
# for how fast the compute pool's second lane joins a region) and fails when
#   - any expected benchmark is missing from the output or its metrics do
#     not parse — a renamed benchmark or an empty result line is a hard
#     failure, never a vacuous pass;
#   - allocations per ALS iteration regress above the per-iteration budget
#     on either iteration bench (BENCH_1.json recorded ~104 allocs/iter
#     after the PR-1 arena work; the guard allows headroom to ~150);
#   - allocations per absorbed batch regress above the absorb budget on
#     either BenchmarkAbsorb variant (~950 measured when the lazy factored-Q
#     absorb landed; the budget allows headroom to 1500);
#   - BenchmarkAbsorb/K64 allocates more than absorb_k_growth (32) above
#     BenchmarkAbsorb/K8: both variants absorb the identical batch, so any
#     allocation that grows with the slices already absorbed shows up as a
#     gap (a 2-per-slice leak reads ~112 here, far inside the absolute
#     budget, which is why the gap is gated on its own);
#   - BenchmarkDPar2's reported fitness drops below 0.95 (BENCH_1.json
#     recorded 0.9559; a vanishing fitness means the workload silently
#     changed);
#   - steady-state BenchmarkFactorBatch allocations exceed the batch budget
#     on either K variant (a warmed BatchWorkspace makes the batched Jacobi
#     sweep allocation-free, so any reintroduced per-problem allocation
#     shows up as at least K allocs/op);
#   - the contended-queue bench shows a high-priority mean queue wait above
#     the queue-wait budget, or a priority inversion (high-priority jobs
#     waiting longer than the low-priority backlog they are meant to
#     overtake);
#   - a result-cache hit (BenchmarkCacheHit: key hash + cached-file read +
#     checksum verify + decode, never the method) regresses above its
#     allocation or latency budget (~105 allocs / ~0.9ms measured when the
#     cache landed; budgets allow headroom to 300 allocs / 25ms);
#   - a served cache hit on an 8.0 MB tensor (BenchmarkServiceCacheHit: one
#     loopback round trip whose cache key reads the digest kept at upload,
#     and whose reply carries the entry's DPF2 bytes as read) regresses
#     above its latency, allocation or byte budget. Latency read 26-32ms on
#     a 2-core host when the digest began travelling with the job, and
#     46-52ms when each hit re-encoded and twice hashed the tensor, a cost
#     the 235 KB tensor of BenchmarkCacheHit cannot show; the budget sits
#     between the two. Once hits were served as their entry's bytes it read
#     555-574 allocs and 8.8-9.9 MB per op over 31 runs (885-904 allocs and
#     12.6-14.2 MB while each hit was decoded into a Result and encoded
#     again). At this shape the decode alone costs ~306 allocs and 2.3 MB
#     and the encode 16 allocs and 2.26 MB, so the budgets of 700 allocs
#     and 11 MB fail if either comes back;
#   - the HTTP service's transport tax regresses: the loopback round trip of
#     BenchmarkServiceDecomposeRoundTrip (JSON request + admission queue +
#     DPF2 response, minus the in-process decomposition time) must stay
#     under the service-overhead budget (~5ms measured when the service
#     landed; the budget allows headroom to 250ms).
#   - the second lane of a 2-wide compute pool takes longer than the join
#     budget to join short regions opened back to back (BenchmarkRegionJoin,
#     median over 2000 regions). An idle worker polls for a new region for
#     a while before it parks: the median read 0.7-0.9 us on a 2-core host
#     when polling landed, and 64-66 us while workers parked between
#     regions, the wake-up a region of the ALS loop (50-130 us) cannot
#     afford. The 25 us budget fails if workers go back to parking.
#
# Besides the human-readable log, every budget check emits one machine-
# readable JSON line on stdout of the form
#   {"gate":"benchsmoke","check":"...","bench":"...","value":V,"budget":B,"pass":true|false}
# so CI tooling can consume the gate results without scraping prose (the
# same convention cmd/reprolint -json uses). Presence checks for the
# guarded benchmark set emit value 1 (seen) or 0 (missing) against budget 1;
# the priority-inversion check emits hi − lo queue wait against budget 0.
#
# Usage: scripts/benchsmoke.sh
set -eu

# Budgets (see the list above for what each guards and why it has headroom).
budget=150          # allocs per ALS iteration
absorb_budget=1500  # allocs per absorbed batch
qwait_budget=250    # high-priority mean queue wait, ms
batch_budget=8      # allocs per batched SVD sweep
cachehit_budget=300 # allocs per cache hit
cachems_budget=25   # cache hit latency, ms
svc_budget=250      # HTTP service transport overhead, ms
svchit_budget=40    # served cache hit at serve-mixed size, ms
svchit_allocs=700   # served cache hit, allocs
svchit_bytes=11000000 # served cache hit, bytes allocated
join_budget=25      # second lane's median join latency, us
# Largest allowed BenchmarkAbsorb K64 − K8 allocs/op gap. Both variants absorb
# the same batch; the slack covers arena and sync.Pool jitter only.
absorb_k_growth=32
out="$(go test -run '^$' -bench '^(BenchmarkDPar2|BenchmarkDPar2IterationAllocs|BenchmarkDPar2TallSlice|BenchmarkAbsorb|BenchmarkFactorBatch|BenchmarkEngineContendedQueue|BenchmarkCacheHit)$' -benchtime 2x -benchmem .)
$(go test -run '^$' -bench '^(BenchmarkServiceDecomposeRoundTrip|BenchmarkServiceCacheHit)$' -benchtime 10x -benchmem ./internal/service/)
$(go test -run '^$' -bench '^BenchmarkRegionJoin$' -benchtime 2000x ./internal/compute/)"
echo "$out"

echo "$out" | awk -v budget="$budget" -v absorb_budget="$absorb_budget" -v qwait_budget="$qwait_budget" -v batch_budget="$batch_budget" -v cachehit_budget="$cachehit_budget" -v cachems_budget="$cachems_budget" -v svc_budget="$svc_budget" -v svchit_budget="$svchit_budget" -v svchit_allocs="$svchit_allocs" -v svchit_bytes="$svchit_bytes" -v join_budget="$join_budget" -v absorb_k_growth="$absorb_k_growth" '
function metric(name,   i) {
    # value of a named benchmark metric on the current line, or "" if absent
    for (i = 2; i <= NF; i++) if ($i == name) return $(i - 1)
    return ""
}
function gatejson(check, bench, value, budgetv, ok) {
    # one machine-readable JSON line per budget check (see header comment)
    printf "{\"gate\":\"benchsmoke\",\"check\":\"%s\",\"bench\":\"%s\",\"value\":%.4f,\"budget\":%.4f,\"pass\":%s}\n", \
        check, bench, value, budgetv, (ok ? "true" : "false")
}
function require(val, name) {
    if (val == "") {
        printf "benchsmoke: could not parse %s from %s\n", name, $1 > "/dev/stderr"
        exit 2
    }
    return val
}
$1 ~ /^BenchmarkDPar2(-[0-9]+)?$/ {
    seen["BenchmarkDPar2"] = 1
    fit = require(metric("fitness"), "fitness")
    printf "benchsmoke: %s fitness %.4f (floor 0.95)\n", $1, fit
    gatejson("fitness-floor", "BenchmarkDPar2", fit, 0.95, fit >= 0.95)
    if (fit < 0.95) {
        printf "benchsmoke: FAIL — %s fitness %.4f below 0.95\n", $1, fit > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkDPar2(IterationAllocs|TallSlice)(-[0-9]+)?$/ {
    sub(/-[0-9]+$/, "", $1); seen[$1] = 1
    iters  = require(metric("als-iters"), "als-iters")
    allocs = require(metric("allocs/op"), "allocs/op")
    if (iters <= 0) {
        printf "benchsmoke: %s reported zero als-iters\n", $1 > "/dev/stderr"
        exit 2
    }
    per = allocs / iters
    printf "benchsmoke: %s %.1f allocs per ALS iteration (budget %d)\n", $1, per, budget
    gatejson("allocs-per-iter", $1, per, budget, per <= budget)
    if (per > budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per ALS iteration\n", $1, budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkAbsorb\// {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkAbsorb\//, "", name)
    seen["BenchmarkAbsorb/" name] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    absorb[name] = allocs
    printf "benchsmoke: %s %.0f allocs per absorbed batch (budget %d)\n", $1, allocs, absorb_budget
    gatejson("allocs-per-absorb", "BenchmarkAbsorb/" name, allocs, absorb_budget, allocs <= absorb_budget)
    if (allocs > absorb_budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per absorbed batch\n", $1, absorb_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkFactorBatch\// {
    name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkFactorBatch\//, "", name)
    seen["BenchmarkFactorBatch/" name] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    printf "benchsmoke: %s %.0f allocs per batched SVD sweep (budget %d)\n", $1, allocs, batch_budget
    gatejson("allocs-per-batch", "BenchmarkFactorBatch/" name, allocs, batch_budget, allocs <= batch_budget)
    if (allocs > batch_budget) {
        printf "benchsmoke: FAIL — %s regressed above %d allocs per batched SVD sweep\n", $1, batch_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkCacheHit(-[0-9]+)?$/ {
    seen["BenchmarkCacheHit"] = 1
    allocs = require(metric("allocs/op"), "allocs/op")
    ms = require(metric("ns/op"), "ns/op") / 1e6
    printf "benchsmoke: %s %.0f allocs, %.2fms per cache hit (budgets %d allocs, %dms)\n", $1, allocs, ms, cachehit_budget, cachems_budget
    gatejson("allocs-per-cache-hit", "BenchmarkCacheHit", allocs, cachehit_budget, allocs <= cachehit_budget)
    gatejson("cache-hit-latency-ms", "BenchmarkCacheHit", ms, cachems_budget, ms <= cachems_budget)
    if (allocs > cachehit_budget) {
        printf "benchsmoke: FAIL — cache hit regressed above %d allocs\n", cachehit_budget > "/dev/stderr"
        bad = 1
    }
    if (ms > cachems_budget) {
        printf "benchsmoke: FAIL — cache hit latency %.2fms above %dms budget\n", ms, cachems_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkServiceDecomposeRoundTrip(-[0-9]+)?$/ {
    seen["BenchmarkServiceDecomposeRoundTrip"] = 1
    overhead = require(metric("overhead-ms"), "overhead-ms")
    httpms   = require(metric("http-ms"), "http-ms")
    printf "benchsmoke: %s %.2fms round trip, %.2fms transport overhead (budget %dms)\n", $1, httpms, overhead, svc_budget
    gatejson("service-overhead-ms", "BenchmarkServiceDecomposeRoundTrip", overhead, svc_budget, overhead <= svc_budget)
    if (overhead > svc_budget) {
        printf "benchsmoke: FAIL — HTTP service overhead %.2fms above %dms budget\n", overhead, svc_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkServiceCacheHit(-[0-9]+)?$/ {
    seen["BenchmarkServiceCacheHit"] = 1
    ms = require(metric("ns/op"), "ns/op") / 1e6
    allocs = require(metric("allocs/op"), "allocs/op")
    bytes = require(metric("B/op"), "B/op")
    printf "benchsmoke: %s %.2fms, %.0f allocs, %.2f MB per served cache hit (budgets %dms, %d allocs, %.2f MB)\n", $1, ms, allocs, bytes / 1e6, svchit_budget, svchit_allocs, svchit_bytes / 1e6
    gatejson("service-cache-hit-ms", "BenchmarkServiceCacheHit", ms, svchit_budget, ms <= svchit_budget)
    gatejson("service-cache-hit-allocs", "BenchmarkServiceCacheHit", allocs, svchit_allocs, allocs <= svchit_allocs)
    gatejson("service-cache-hit-bytes", "BenchmarkServiceCacheHit", bytes, svchit_bytes, bytes <= svchit_bytes)
    if (ms > svchit_budget) {
        printf "benchsmoke: FAIL — served cache hit %.2fms above %dms budget\n", ms, svchit_budget > "/dev/stderr"
        bad = 1
    }
    if (allocs > svchit_allocs) {
        printf "benchsmoke: FAIL — served cache hit %.0f allocs above %d budget\n", allocs, svchit_allocs > "/dev/stderr"
        bad = 1
    }
    if (bytes > svchit_bytes) {
        printf "benchsmoke: FAIL — served cache hit %.0f bytes above %d budget\n", bytes, svchit_bytes > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkRegionJoin(-[0-9]+)?$/ {
    seen["BenchmarkRegionJoin"] = 1
    joinus = require(metric("join-p50-us"), "join-p50-us")
    printf "benchsmoke: %s second lane joins a region in %.2fus at the median (budget %dus)\n", $1, joinus, join_budget
    gatejson("region-join-us", "BenchmarkRegionJoin", joinus, join_budget, joinus <= join_budget)
    if (joinus > join_budget) {
        printf "benchsmoke: FAIL — the second lane joins a region in %.2fus, above the %dus budget\n", joinus, join_budget > "/dev/stderr"
        bad = 1
    }
}
$1 ~ /^BenchmarkEngineContendedQueue(-[0-9]+)?$/ {
    seen["BenchmarkEngineContendedQueue"] = 1
    hi = require(metric("hi-qwait-ms"), "hi-qwait-ms")
    lo = require(metric("lo-qwait-ms"), "lo-qwait-ms")
    printf "benchsmoke: %s hi-qwait %.2fms lo-qwait %.2fms (hi budget %dms)\n", $1, hi, lo, qwait_budget
    gatejson("hi-qwait", "BenchmarkEngineContendedQueue", hi, qwait_budget, hi <= qwait_budget)
    gatejson("priority-inversion", "BenchmarkEngineContendedQueue", hi - lo, 0, hi <= lo)
    if (hi > qwait_budget) {
        printf "benchsmoke: FAIL — high-priority queue wait %.2fms above %dms budget\n", hi, qwait_budget > "/dev/stderr"
        bad = 1
    }
    if (hi > lo) {
        printf "benchsmoke: FAIL — priority inversion: hi-qwait %.2fms > lo-qwait %.2fms\n", hi, lo > "/dev/stderr"
        bad = 1
    }
}
END {
    # Every guarded benchmark must have produced a parseable result line:
    # a rename or an empty run is a hard failure, not a silent skip.
    n = split("BenchmarkDPar2 BenchmarkDPar2IterationAllocs BenchmarkDPar2TallSlice BenchmarkAbsorb/K8 BenchmarkAbsorb/K64 BenchmarkFactorBatch/K8 BenchmarkFactorBatch/K64 BenchmarkEngineContendedQueue BenchmarkCacheHit BenchmarkServiceDecomposeRoundTrip BenchmarkServiceCacheHit BenchmarkRegionJoin", want, " ")
    for (i = 1; i <= n; i++) {
        present = (want[i] in seen)
        gatejson("present", want[i], present ? 1 : 0, 1, present)
        if (!present) {
            printf "benchsmoke: expected benchmark %s missing from output\n", want[i] > "/dev/stderr"
            missing = 1
        }
    }
    if (missing) exit 2
    growth = absorb["K64"] - absorb["K8"]
    printf "benchsmoke: BenchmarkAbsorb K64 - K8 = %.0f allocs (budget %d)\n", growth, absorb_k_growth
    gatejson("absorb-k-growth", "BenchmarkAbsorb/K64", growth, absorb_k_growth, growth <= absorb_k_growth)
    if (growth > absorb_k_growth) {
        printf "benchsmoke: FAIL — absorb allocations grow with K: K64 allocates %.0f more than K8 (budget %d)\n", growth, absorb_k_growth > "/dev/stderr"
        bad = 1
    }
    if (bad) exit 1
}'
