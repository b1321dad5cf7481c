# Developer and CI entry points for rvpsim. `make ci` is the gate a
# change must pass: formatting, vet, build, the full test suite under
# the race detector, and the cross-run determinism check.

GO ?= go

.PHONY: all ci vet build test race determinism lockstep bench fmt-check fuzz-smoke faults staticcheck govulncheck serve-smoke obs-smoke fleet-smoke storage-faults net-faults fsck-smoke sync-vet pgo release

all: ci

ci: fmt-check vet sync-vet staticcheck govulncheck build race determinism faults storage-faults net-faults fuzz-smoke serve-smoke obs-smoke fleet-smoke fsck-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

determinism:
	$(GO) test -run 'TestDeterminism|TestCheckpointDeterminism|TestCellCache|TestPinnedConfigDigests|TestBooksMatchReference|TestIssueGrowthResume|TestResumeFixedRingCheckpoint|TestRestoreRejectsCorruptSlot|TestRunFootprint|TestSerialMatchesParallel|TestPartialTablesPinned' ./...

# Differential validation: run the timing pipeline and the reference
# emulator in lockstep over all nine workloads under every recovery
# scheme; any divergence in the committed stream or architectural state
# fails the target.
lockstep:
	$(GO) test -race -run TestLockstepAllWorkloads ./internal/lockstep/ -count 1

# The benchmark ledger: four end-to-end workloads (sim-hot, figures,
# serve, fleet) plus the per-layer ns/inst breakdown, one JSON record
# per workload (see internal/bench/README.md). `go test ./internal/bench/`
# smoke-runs the same harness at a tiny budget.
bench:
	bash cmd/rvpbench/run.sh

# Short fuzzing pass: 30s per native fuzz target. Long exploratory runs
# stay manual (go test -fuzz FuzzAssemble -fuzztime 10m ./internal/asm).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 30s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzEncodeDecode -fuzztime 30s ./internal/isa
	$(GO) test -run '^$$' -fuzz FuzzJobRequest -fuzztime 30s ./internal/server

# Static analysis and vulnerability scanning, gated on tool presence:
# the build container ships only the go toolchain, so missing tools are
# reported and skipped rather than failing ci.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

# End-to-end smoke of the service binaries: boot rvpd on an ephemeral
# port, probe health through rvpc, run one small job to completion, and
# shut the daemon down with SIGTERM. No curl, no fixed ports.
serve-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpd" ./cmd/rvpd; \
	$(GO) build -o "$$tmp/rvpc" ./cmd/rvpc; \
	"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" -state "$$tmp/state" & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "rvpd never wrote its address"; kill $$pid; exit 1; }; \
	addr="http://$$(cat "$$tmp/addr")"; \
	"$$tmp/rvpc" -server "$$addr" health; \
	"$$tmp/rvpc" -server "$$addr" submit -wait -workload go -predictor rvp -n 200000; \
	kill -TERM $$pid; wait $$pid; \
	echo "serve-smoke OK"

# Observability smoke against a live daemon: watch a job's live event
# stream end to end (queued -> started -> progress heartbeats -> done)
# and pull the merged client+server trace, asserting the cross-process
# spans (client submit, daemon admission and simulation) all landed in
# one Chrome trace file.
obs-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpd" ./cmd/rvpd; \
	$(GO) build -o "$$tmp/rvpc" ./cmd/rvpc; \
	"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr" -state "$$tmp/state" -progress-every 50000 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr" ] || { echo "rvpd never wrote its address"; kill $$pid; exit 1; }; \
	addr="http://$$(cat "$$tmp/addr")"; \
	"$$tmp/rvpc" -server "$$addr" submit -watch -workload go -predictor rvp -n 200000 \
		-trace-out "$$tmp/trace.json" | tee "$$tmp/watch.log"; \
	for ev in queued started progress done; do \
		grep -q "$$ev" "$$tmp/watch.log" || { echo "watch stream missing $$ev event"; kill $$pid; exit 1; }; \
	done; \
	for span in submit admission queue_wait worker "sim:go/"; do \
		grep -q "$$span" "$$tmp/trace.json" || { echo "merged trace missing $$span span"; kill $$pid; exit 1; }; \
	done; \
	kill -TERM $$pid; wait $$pid; \
	echo "obs-smoke OK"

# Fleet smoke: three rvpd workers plus a fourth rvpd whose sweep
# coordinator dispatches to them (-peers), all on ephemeral ports, one
# worker SIGKILLed mid-sweep, and the sweep must still finish with a
# merged table. The kill waits until `rvpc sweep <id>` shows the sweep
# running with a cell leased to worker a. Cells are sized (-n 3M, about
# 0.6s each alone) so that state lasts past the kill. The fleet runs at
# its defaults: worker a's cell is stolen after the 5s steal age (or
# its 10s lease expires). The real chaos proof (byte-identical merge,
# no cell committed twice) lives in the fleet package's -race e2e; this
# target proves the shipped binaries wire together.
fleet-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpd" ./cmd/rvpd; \
	$(GO) build -o "$$tmp/rvpc" ./cmd/rvpc; \
	pids=""; urls=""; \
	for w in a b c; do \
		"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr-$$w" -state "$$tmp/w-$$w" -workers 1 & pids="$$pids $$!"; \
	done; \
	for w in a b c; do \
		for i in $$(seq 1 100); do [ -s "$$tmp/addr-$$w" ] && break; sleep 0.1; done; \
		[ -s "$$tmp/addr-$$w" ] || { echo "worker $$w never wrote its address"; kill $$pids; exit 1; }; \
		urls="$$urls,http://$$(cat "$$tmp/addr-$$w")"; \
	done; \
	urls=$${urls#,}; \
	"$$tmp/rvpd" -addr 127.0.0.1:0 -addr-file "$$tmp/addr-coord" -state "$$tmp/coord" \
		-peers "$$urls" & cpid=$$!; \
	for i in $$(seq 1 100); do [ -s "$$tmp/addr-coord" ] && break; sleep 0.1; done; \
	[ -s "$$tmp/addr-coord" ] || { echo "coordinating rvpd never wrote its address"; kill $$pids $$cpid; exit 1; }; \
	coord="http://$$(cat "$$tmp/addr-coord")"; \
	"$$tmp/rvpc" -server "$$coord" sweep -workloads go,li,perl -predictors none,rvp -n 3000000 \
		| tee "$$tmp/submit.log"; \
	id=$$(sed -n 's/^sweep \([a-f0-9]*\):.*/\1/p' "$$tmp/submit.log" | head -1); \
	[ -n "$$id" ] || { echo "no sweep id parsed"; kill $$pids $$cpid; exit 1; }; \
	a=$${urls%%,*}; leased=""; \
	for i in $$(seq 1 100); do \
		"$$tmp/rvpc" -server "$$coord" sweep "$$id" > "$$tmp/poll.log" || true; \
		if grep -q ": running" "$$tmp/poll.log" && grep -qF "worker $$a: live, 1 leased" "$$tmp/poll.log"; then \
			leased=1; break; fi; \
		sleep 0.1; \
	done; \
	[ -n "$$leased" ] || { echo "worker a never held a lease on a running sweep"; cat "$$tmp/poll.log"; kill $$pids $$cpid; exit 1; }; \
	kill -9 $$(echo $$pids | awk '{print $$1}'); \
	echo "killed worker a mid-sweep while it held a lease"; \
	"$$tmp/rvpc" -server "$$coord" sweep -wait "$$id" | tee "$$tmp/final.log"; \
	grep -q "average" "$$tmp/final.log" || { echo "no merged table in sweep output"; kill $$pids $$cpid; exit 1; }; \
	grep -q ": done" "$$tmp/final.log" || { echo "sweep did not finish done"; kill $$pids $$cpid; exit 1; }; \
	kill -TERM $$cpid; wait $$cpid; \
	kill -TERM $$pids 2>/dev/null || true; \
	echo "fleet-smoke OK"

# Fault-injection invariant suite: recovery schemes must never commit a
# wrong value and must terminate under injected latency/flip/panic faults.
faults:
	$(GO) test -race ./internal/faultinject/ -run . -count 1

# Hostile-storage suite under the race detector: the crash-at-every-
# syscall harness over every durable store, the shared torn/corrupt-tail
# conformance matrix, the vfs fault injector's own tests, and the
# ENOSPC-degradation e2e for both services.
storage-faults:
	$(GO) test -race -count 1 ./internal/vfs/ ./internal/wal/ ./internal/wal/waltest/
	$(GO) test -race -count 1 -run 'TornTailMatrix|ENOSPC' ./internal/server/ ./internal/exp/ ./internal/fleet/

# Hostile-network suite under the race detector: the netfault seam's
# own conformance tests, the client's retry/deadline/SSE-resume tests
# against injected faults, the server's deadline and slow-loris
# admission tests and status long-poll tests, the fleet partition-chaos
# e2e (real workers behind fault-injecting proxies, SIGKILL,
# byte-identical merge), the fleet's long-poll, poll-pacing and
# steal-without-ping-pong tests, and the one-daemon e2e (rvpd hosting
# the coordinator across processes).
net-faults:
	$(GO) test -race -count 1 ./internal/netfault/ ./internal/client/
	$(GO) test -race -count 1 -run 'Deadline|SlowLoris|StatusWait' ./internal/server/
	$(GO) test -race -count 1 -run 'TestFleetPartitionChaos|TestDigestMismatched|TestLeaseFencing|TestLongPollSeesFinishedCellsAtOnce|TestPollPacing|TestCellLongerThanStealAgeFinishes|TestRvpdHostsSweepCoordinator' ./internal/fleet/ -timeout 10m

# Durability-layer errcheck: no discarded Sync/SyncDir/Close error in
# the packages that own persistent state or pooled connections.
sync-vet:
	$(GO) test -count 1 ./internal/tools/syncvet/

# Offline-scrub smoke through the shipped binary: a torn WAL tail and a
# garbage checkpoint must be detected (exit 1), repaired / quarantined
# on request, and leave a state dir fsck then calls clean (exit 0).
fsck-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/rvpadmin" ./cmd/rvpadmin; \
	mkdir -p "$$tmp/state"; \
	printf '{"crc":1,"rec":{"torn' > "$$tmp/state/cells.jsonl"; \
	printf 'not a checkpoint' > "$$tmp/state/bad.ckpt"; \
	if "$$tmp/rvpadmin" fsck "$$tmp/state" >/dev/null; then \
		echo "fsck missed the damage"; exit 1; fi; \
	"$$tmp/rvpadmin" fsck -repair -quarantine "$$tmp/q" "$$tmp/state" >/dev/null; \
	"$$tmp/rvpadmin" fsck "$$tmp/state" >/dev/null; \
	[ -f "$$tmp/q/bad.ckpt.corrupt" ] || { echo "checkpoint not quarantined"; exit 1; }; \
	echo "fsck-smoke OK"

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Profile-guided optimization. `make pgo` captures a CPU profile of a
# representative sweep (the saturation benchmark plus one figure sweep)
# into default.pgo; `make release` then builds the binaries with that
# profile applied. The profile is a local artifact (gitignored): release
# falls back to a plain build when it is absent, so CI stays hermetic.
pgo:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) test -run '^$$' -bench 'BenchmarkSimulatorParallel|BenchmarkFigure5' \
		-benchtime 3x -count 1 -cpuprofile default.pgo -o "$$tmp/bench.test" .; \
	echo "wrote default.pgo; run 'make release' to build with it"

release:
	@mkdir -p bin
	@if [ -f default.pgo ]; then \
		echo "building with profile-guided optimization (default.pgo)"; \
		$(GO) build -pgo=default.pgo -o bin/ ./cmd/...; \
	else \
		echo "default.pgo not found; plain build (run 'make pgo' first to enable PGO)"; \
		$(GO) build -o bin/ ./cmd/...; \
	fi
