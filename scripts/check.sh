#!/bin/sh
# check.sh — the repo's standing health gate: vet, then the domain
# analyzers, then the full test suite with the race detector on.
set -eu

cd "$(dirname "$0")/.."

echo ">> go vet ./..."
go vet ./...

echo ">> hdlint ./..."
go run ./cmd/hdlint ./...

# -short skips the live wall-clock validation runs (fig12a), which
# under the race detector's ~5-10x slowdown exceed the per-package
# test timeout; everything else runs race-enabled in full.
echo ">> go test -race -short ./..."
go test -race -short -timeout 20m ./...

# Executor lifecycle races (slot hand-off, double stop) show only
# under repetition: the package five times race-enabled, and the
# hand-off test, which starts the next job on a slot the moment the
# previous job's exit arrives, twenty times.
echo ">> go test -race -short -count=5 ./internal/cluster"
go test -race -short -count=5 -timeout 20m ./internal/cluster
echo ">> go test -race -count=20 -run TestExecutorSlotHandOff ./internal/cluster"
go test -race -count=20 -run 'TestExecutorSlotHandOff' -timeout 5m ./internal/cluster

# The chaos e2e (kill + revive an agent mid-experiment) also skips
# under -short, so run it explicitly, race-enabled and bounded.
echo ">> go test -race -run TestChaos ./internal/cluster"
go test -race -run 'TestChaos' -count=1 -timeout 5m ./internal/cluster

# Same for the service-level chaos e2e: two tenants on a shared
# 64-slot pool, one agent killed mid-run, both must still finish.
echo ">> go test -race -run TestMultiTenantChaosE2E ./internal/serve"
go test -race -run 'TestMultiTenantChaosE2E' -count=1 -timeout 5m ./internal/serve

# hyperdrived smoke: boot the multi-tenant server on loopback, submit
# two tenant experiments over HTTP, poll both to completion, and
# exercise the tenant/events/obs surfaces — including the fleet
# observability ones: the /metrics rollup must carry the serve_*
# families (whose names hdlint metricnames pins to internal/obs above)
# and /healthz + /readyz must report a healthy fleet. Exits non-zero on
# any miss.
echo ">> hyperdrived -smoke"
go run ./cmd/hyperdrived -smoke >/dev/null

# The benchmark is its own module, so ./... above does not reach it:
# vet it and run its tests (the oracles on hand-built traces and the
# check that BENCHMARK.json names exactly the metrics it prints).
echo ">> perfbench: go vet + go test"
(cd perfbench && go vet ./... && go test ./...)

# Trace-export smoke: a small live run must produce a Chrome trace
# that validates, and the event-log conversion path must produce one
# too.
echo ">> trace export (smoke)"
tracedir="$(mktemp -d)"
go run ./cmd/hyperdrive -policy default -machines 2 -jobs 4 -speedup 200000 \
	-log "$tracedir/run.jsonl" -trace-out "$tracedir/run.trace.json" >/dev/null
go run ./cmd/hdlog -check-trace "$tracedir/run.trace.json"
go run ./cmd/hdlog -in "$tracedir/run.jsonl" -trace "$tracedir/log.trace.json" >/dev/null
go run ./cmd/hdlog -check-trace "$tracedir/log.trace.json"
rm -rf "$tracedir"

# Quality-report smoke: a short deterministic sim run with the audit on
# must yield a log that hdreport renders, with the calibration table in
# the output.
echo ">> hdreport (smoke)"
qualdir="$(mktemp -d)"
go run ./cmd/hdsim -gen cifar10 -gen-jobs 8 -policies pop -machines 2 \
	-quality-out "$qualdir/quality.jsonl" >/dev/null
go run ./cmd/hdreport -o - "$qualdir/quality.jsonl" | grep -q "Prediction calibration"
rm -rf "$qualdir"

# Fuzz smoke: each wire-format decoder gets a short native-fuzz run
# seeded from its checked-in corpus. A crasher fails the gate and lands
# in the package's testdata/fuzz/ directory for checking in.
echo ">> fuzz smoke (10s per target)"
make -s fuzz-smoke FUZZTIME=10s >/dev/null

echo "OK"
