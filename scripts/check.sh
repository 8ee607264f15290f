#!/bin/sh
# check.sh — the full verification gate for this repository:
#
#   build → go vet → oftecvet (project static analysis) → concurrency
#   tests with -race → batched-equivalence tests with -race → full tests
#   with -race → shuffled repeat of the full tests → bounded fuzz runs →
#   oftecd smoke (live daemon, every endpoint, clean SIGTERM shutdown) →
#   parallel-sweep bench smoke
#
# Run from anywhere inside the module; exits nonzero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# Project static analysis over the whole module: exit 1 on any finding.
# go vet above owns the copylocks check; oftecvet carries the project's
# own invariants (units, float tolerances, error drops, the coolant and
# backend seams, hot-path allocation, lock order, goroutine joins).
echo "== go run ./cmd/oftecvet"
vet_start=$(date +%s)
go run ./cmd/oftecvet
vet_wall=$(( $(date +%s) - vet_start ))

# Self runtime budget: the suite runs on every gate, so it has to stay
# cheap. The budget is ~10× the current cost (compile of cmd/oftecvet
# plus a few seconds of analysis); tripping it means an analyzer
# regressed algorithmically or the module outgrew the loader.
if [ "$vet_wall" -gt 60 ]; then
	echo "check.sh: oftecvet took ${vet_wall}s, over the 60s self-runtime budget" >&2
	exit 1
fi
echo "   oftecvet wall time: ${vet_wall}s (budget 60s)"

# The concurrency surface first and by name, so a race in the evaluation
# cache or the fan-out engine fails fast and unambiguously even if the
# test names around it change.
echo "== go test -race (evaluation-cache + fan-out concurrency)"
go test -race -run 'Concurrent|Singleflight|Eviction|Stress|ParallelMatchesSerial|ForEach' \
	./internal/core/... ./internal/experiments/... ./internal/solver/... ./internal/parallel/... \
	./internal/serve/...

# The solver robustness contract by name: Report conformance across all
# methods, cancellation within one iteration, fault-injected fallback
# degradation, and trace-hook safety — all under -race so the Workers>1
# trace/cancel paths are exercised with the detector on.
echo "== go test -race (solver conformance + fallback fault injection)"
go test -race -run 'Conformance|Fallback|Cancel|Trace|Stop|FaultWrapper|EvalAccounting|Gradient' \
	./internal/solver/... ./internal/core/...

# The adjoint-gradient and SPD-solve gate by name: SolveAuto under the
# caller's cached factorization (the adjoint solves reuse it), its
# negative-curvature certificate on the IC-PCG and Jacobi-CG paths and
# on the TEC-only runaway row, the adjoint-vs-central-difference
# agreement suite (scalar and zoned), the smoothed-max bracket, the
# memoized steady state SolveGrad differentiates, the backend capability
# chain, and the core gradient-mode runs — the
# contract that keeps Options.Gradient's derivatives exact and runaway
# certified.
echo "== go test -race (adjoint gradients vs finite differences, SPD certificate)"
go test -race -run 'Adjoint|SmoothMax|Gradient|SolveGrad|SolveAuto|RunawayCertificate' \
	./internal/sparse/... ./internal/thermal/... ./internal/backend/... ./internal/core/...

# The backend-conformance gate by name: the k=1 zoned/scalar agreement
# contract through the backend layer, the registry and ROM fall-through
# behavior, ROM fidelity against the advertised bound, the seam analyzer
# (backend and coolant rules), and mixed scalar/zoned traffic on one
# shared evalcache —
# the set that keeps every backend interchangeable.
echo "== go test -race (backend conformance)"
go test -race \
	-run 'SingleZoneMatchesScalarRun|Registry|FullScalarMatchesModel|ROM|MixedTraffic|SeamGolden|Binding|Quantized|Oversized|Waiter' \
	./internal/core/... ./internal/backend/... ./internal/evalcache/... ./internal/thermal/... ./internal/lint/...

# The batched-equivalence gate by name: blocked multi-RHS CG against the
# scalar solver bitwise, multi-point Solve against per-point DeepEqual
# (scalar, zoned, mid-batch cancellation, dynamic-power flush spans), the
# zoned warm-start validation, the backend BatchEvaluator conformance
# contract, ROM basis persistence round-trips, and the /stats batch
# counters —
# the set that keeps the batch path interchangeable with the per-point
# path.
echo "== go test -race (batched equivalence + basis persistence)"
go test -race -run 'Batch|ZonedWarm|ROMPersist|ROMCacheDir' \
	./internal/sparse/... ./internal/thermal/... ./internal/backend/... \
	./internal/core/... ./internal/serve/...

# The coolant-conformance gate by name: the actuator contract (air
# bit-identical to the fan package, knee continuity/monotonicity,
# exact-zero saturated-branch derivative), every Table-2 mode DeepEqual
# through the seam, liquid adjoint gradients vs central differences,
# ROM-basis invalidation on actuator change, the liquid/package backend
# registrations and the served coolant field, and the seam analyzer's
# coolant rule — the set that keeps every actuator interchangeable.
echo "== go test -race (coolant-actuator conformance)"
go test -race \
	-run 'Coolant|Liquid|AirSpec|AirBitIdentical|ActuatorChange|Knee|Saturated|TableTwoModes|ColdPlate|Facility|Package|SpecResolve|SpecJSON|SeamGolden' \
	./internal/coolant/... ./internal/thermal/... ./internal/core/... \
	./internal/backend/... ./internal/serve/... ./internal/lint/...

echo "== go test -race ./..."
go test -race ./...

# Order independence: every package's tests three times over in a
# shuffled order, so a test that leans on state an earlier one left
# behind (a memo, a package-level cache directory, a registry entry)
# fails here instead of flaking later. A failing package prints its
# -test.shuffle seed, which reproduces the order.
echo "== go test -count=3 -shuffle=on ./..."
go test -count=3 -shuffle=on ./...

# One bounded fuzz run per untrusted file input: the config loader and
# the persisted ROM basis (OFTECROM). The seed corpora already run in
# every plain go test; this explores past them.
echo "== go test -fuzz (config JSON, OFTECROM basis files)"
go test -run '^$' -fuzz FuzzLoadConfig -fuzztime 10s ./internal/thermal
go test -run '^$' -fuzz FuzzROMCacheFile -fuzztime 10s ./internal/thermal

# The oftecd smoke gate: a real daemon on an ephemeral port, one request
# against every endpoint (including a streamed optimize), then SIGTERM —
# the process must drain and exit zero. This is the only place the
# signal/listener plumbing in cmd/oftecd runs before a deploy would.
echo "== oftecd smoke (live daemon, every endpoint, SIGTERM)"
smokedir=$(mktemp -d)
trap 'kill "$smokepid" 2>/dev/null; rm -rf "$smokedir"' EXIT
go build -o "$smokedir/oftecd" ./cmd/oftecd
"$smokedir/oftecd" -addr 127.0.0.1:0 >"$smokedir/log" 2>&1 &
smokepid=$!
i=0
until grep -q 'listening on' "$smokedir/log"; do
	i=$((i + 1))
	if [ "$i" -gt 100 ]; then
		echo "check.sh: oftecd never started listening" >&2
		cat "$smokedir/log" >&2
		exit 1
	fi
	sleep 0.1
done
smokeaddr=$(sed -n 's/^oftecd: listening on //p' "$smokedir/log")
curl -sf "http://$smokeaddr/healthz" >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/evaluate" \
	-d '{"omega_rpm":3000,"itec_a":1}' | jq -e '.runaway == false' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/optimize" \
	-d '{"chip":{"bench":"CRC32"}}' | jq -e '.feasible == true' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/optimize" \
	-d '{"stream":true}' | tail -n 1 | jq -e '.outcome.feasible == true' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/sweep" \
	-d '{"n_omega":3,"n_i":3}' | jq -e '.points | length == 9' >/dev/null
curl -sf -X POST "http://$smokeaddr/v1/pareto" \
	-d '{"tmax_c":[90]}' | jq -e '.points[0].feasible == true' >/dev/null
# The sweep above went through the blocked multi-RHS path; /stats must
# show the batch traffic next to the cache counters.
curl -sf "http://$smokeaddr/stats" | jq -e '.cache.misses > 0 and .batch.batches > 0' >/dev/null
kill -TERM "$smokepid"
if ! wait "$smokepid"; then
	echo "check.sh: oftecd did not exit cleanly on SIGTERM" >&2
	cat "$smokedir/log" >&2
	exit 1
fi
grep -q 'cache at exit' "$smokedir/log"
trap 'rm -rf "$smokedir"' EXIT
echo "   oftecd smoke: all endpoints answered, clean SIGTERM exit"

# Regenerate the paper-table dump from scratch. The file is derived
# output (gitignored, not committed — EXPERIMENTS.md quotes from it), so
# the gate proves it stays regenerable from the current tree.
echo "== go run ./cmd/benchtable -exp all > benchtable_output.txt"
go run ./cmd/benchtable -exp all > benchtable_output.txt

# One cold iteration of the 40×40 surface sweep in both serial and
# parallel form, so the fan-out path is exercised end-to-end on every gate.
echo "== go test -bench=SurfaceGrid -benchtime=1x"
go test -run '^$' -bench 'SurfaceGrid' -benchtime 1x .

# One iteration of each hot-path benchmark (repeated-point, cold, and
# assembly), so the symbolic-reuse path stays exercised on every gate;
# scripts/bench.sh runs the same set at full benchtime for the recorded
# numbers in BENCH_evaluate.json.
echo "== go test -bench (hot-path smoke, benchtime=1x)"
go test -run '^$' \
	-bench '^(BenchmarkEvaluate|BenchmarkEvaluateExact|BenchmarkEvaluateCold|BenchmarkEvaluateExactCold|BenchmarkROMEvaluate)$' \
	-benchtime 1x .
go test -run '^$' -bench '^BenchmarkAssemble$' -benchtime 1x ./internal/thermal

echo "== check.sh: all gates passed"
