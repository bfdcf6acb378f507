#!/bin/sh
# The canonical repository check: formatting, vet, build, the full test
# suite under the race detector with coverage, and a coverage floor.
# Run from the repository root.
#
# Coverage is per-package (plain -cover, no -coverpkg): cross-package
# instrumentation makes every test binary count statements in all of
# ./internal/..., which under -race pushes the slow simulation packages
# past the per-package test timeout on small machines. The explicit
# -timeout leaves headroom for race-instrumented runs on few cores.
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l .)
if [ -n "$fmt" ]; then
    echo "gofmt needed on:" >&2
    echo "$fmt" >&2
    exit 1
fi

go vet ./...
go build ./...

# Documentation gates. doccheck requires a doc comment on every
# exported identifier of the documented core packages (root ipim,
# internal/sim, internal/cube, internal/vault, internal/engine,
# internal/noc, internal/dram, internal/compiler); linkcheck
# verifies the relative links in README/DESIGN/EXPERIMENTS/ROADMAP and
# docs/*.md resolve. Both live in scripts/ and compile under `go build ./...`.
go run ./scripts/doccheck
go run ./scripts/linkcheck

go test -race -cover -coverprofile=coverage.out -timeout 30m ./...

# Benchmark smoke: one iteration of the full-machine benchmark (the
# full 128-vault machine), of the cycle-mode simulator-core benchmark,
# of its functional-mode mirror and of the compile benchmark, so no
# bench harness can rot between PRs. -benchtime=1x keeps these to
# build-and-run checks; any panic or error fails CI. Real numbers come
# from `go test -bench` per docs/BENCHMARKS.md.
go test -run='^$' -bench='^BenchmarkFullMachineRunSame$' -benchtime=1x .
go test -run='^$' -bench='^BenchmarkSimCore$' -benchtime=1x .
go test -run='^$' -bench='^BenchmarkCompile$' -benchtime=1x .
go test -run='^$' -bench='^BenchmarkSimCoreFunctional$' -benchtime=1x .

# DNN golden-sweep smoke: the DNN/GEMM family at tiny shapes through
# the shipped CLI. The dnn_test.go sweep (device vs host golden vs
# reference, both schedules, all modes) is the real correctness gate
# under -race above; this slot keeps the -exp dnn surface and the
# multi-array end-to-end path from rotting.
go run ./cmd/ipim-bench -exp dnn -div 8 > /dev/null

# Checkpoint/resume smoke: force a mid-run budget abort with a
# checkpoint file, then resume it to completion through the shipped
# CLI — one Table II workload with real phase barriers (Histogram) and
# one DNN workload (GEMM runs under ipim-bench's dnn sweep above). The
# checkpoint_test.go differential matrix (4 workloads × worker counts
# × fault rates, restore at first/middle/last barrier)
# is the real correctness gate under -race above; this slot keeps the
# -checkpoint/-resume flag surface and the restore-from-disk path from
# rotting. The chaos soak (injected worker panics + pool teardown,
# byte-identical responses) runs under -race in the suite above as
# TestChaosCrashRecoverySoak / TestDrainRestartResumesJournal.
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$ckpt_dir"' EXIT
go run ./cmd/ipim-run -workload Histogram -W 64 -H 32 \
    -checkpoint "$ckpt_dir/ci.ckpt" -max-cycles 2000 > /dev/null 2>&1 || true
test -s "$ckpt_dir/ci.ckpt"
go run ./cmd/ipim-run -workload Histogram -W 64 -H 32 \
    -resume "$ckpt_dir/ci.ckpt" -max-cycles 10000000 > /dev/null
go test . -run '^TestCheckpointResumeDifferential$/^dnn:GEMM' -count=1

# Autotuner smoke: a real parallel grid search through the ipim-tune
# CLI (tiny machine, small probe) plus the serve background-tuning
# integration path. The unit suite covers both under -race above; this
# slot keeps the shipped binary's flag surface and the end-to-end
# search loop from rotting.
go run ./cmd/ipim-tune -config tiny -W 32 -H 16 -strategy grid -workers 4 -json > /dev/null
go test ./internal/serve -run '^TestBackgroundTuningSoak$' -count=1

# Fleet smoke: real ipim-router + ipim-serve binaries, one router
# fronting two workers, a Table II request and a 4-frame stream pushed
# through the router with the stream's owning worker SIGKILLed
# mid-stream; asserts the client still got byte-identical frames and
# that ipim_router_failovers_total moved. The in-process differential
# gate (TestFleetDifferentialGate) runs under -race in the suite
# above; this slot keeps the shipped binaries' flag surface and the
# cross-process splice path from rotting.
go test ./internal/fleet -run '^TestFleetProcessSmoke$' -count=1

# Benchmark-module smoke: bench/ is its own module (it replaces ipim
# with this checkout), so `go build ./...` above never compiles it. Vet
# and test it here, so a root change that breaks an API the benchmark
# calls, or a /metrics series it parses, fails CI rather than the
# benchmark run. Its tests drive every workload for a few requests.
(cd bench && go vet ./... && go test ./...)

# Fuzz smoke: a short real fuzzing run (not just the seed corpus, which
# plain `go test` already replays) so the fuzz targets can't bit-rot
# between PRs. Keep -fuzztime small; this is a build/harness check, not
# a bug hunt.
go test ./internal/isa -run='^$' -fuzz='^FuzzAssemble$' -fuzztime=10s
go test ./internal/pixel -run='^$' -fuzz='^FuzzNetpbm$' -fuzztime=10s
go test ./internal/pixel -run='^$' -fuzz='^FuzzPGMFrames$' -fuzztime=10s
go test . -run='^$' -fuzz='^FuzzFunctionalVsTiming$' -fuzztime=10s
go test ./internal/vault -run='^$' -fuzz='^FuzzExecFuncVsEvalLane$' -fuzztime=10s
# Checkpoint payloads are kilobytes, and the fuzzer's default
# minimization of each new input (up to 60 s, quadratic in its length)
# would take the whole slot; 100 tries per input keep it fuzzing.
go test ./internal/cube -run='^$' -fuzz='^FuzzCheckpointDecode$' -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/compiler -run='^$' -fuzz='^FuzzScheduleVsReference$' -fuzztime=10s
go test ./internal/autotune -run='^$' -fuzz='^FuzzStoreReplay$' -fuzztime=10s
# Run-request bodies are kilobytes too; the same cap keeps minimization
# from taking the slot.
go test ./internal/serve -run='^$' -fuzz='^FuzzRunRequest$' -fuzztime=10s -fuzzminimizetime=100x
go test ./internal/fleet -run='^$' -fuzz='^FuzzRegister$' -fuzztime=10s

# Coverage floor over the internal packages' own statements (cmd/ and
# examples/ mains are exercised end-to-end by the examples smoke test
# and serve tests, which plain -cover can't attribute). Baseline at the
# time the floor was set: 89.9% (2026-08-06, after the parallel-
# simulation PR). The floor leaves a little room for refactoring noise;
# raise it when the baseline moves up, never lower it to make a PR pass.
floor=85.0
grep -E '^mode:|^ipim/internal/' coverage.out > coverage.internal.out
total=$(go tool cover -func=coverage.internal.out | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "ci: test coverage ${total}% (floor ${floor}%)"
ok=$(awk -v t="$total" -v f="$floor" 'BEGIN { print (t >= f) ? 1 : 0 }')
if [ "$ok" != 1 ]; then
    echo "ci: coverage ${total}% fell below the ${floor}% floor" >&2
    exit 1
fi

echo "ci: all checks passed"
