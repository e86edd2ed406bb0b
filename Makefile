# netalignmc build and reproduction targets.

GO ?= go

.PHONY: all build test race bench-go cover vet faults chaos fuzz examples reproduce serve smoke cluster-smoke clean

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: vet
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection and resilience suite under the race detector:
# worker panics, cancellation, NaN injection at every solver step,
# malformed inputs.
faults:
	$(GO) test -race -run Fault ./...

# I/O chaos harness + self-healing lifecycle suite: one-shot and
# persistent injected faults (EIO/ENOSPC/short write) at every
# registered fault point, retry/quarantine/requeue arcs, the stall
# watchdog, and pressure-driven load shedding — under the race
# detector with real parallelism.
chaos:
	GOMAXPROCS=4 $(GO) test -race -run 'TestChaos|TestRetry|TestQuarantine|TestCrashLoop|TestWatchProgress|TestStall|TestPressure|TestCheckpointFault' ./internal/server/ ./internal/faults/

# Brief fuzzing of every Fuzz* target in the module, 10s each: the
# file-format and checkpoint readers, the canonical problem reader and
# writer, and the v1 job spec decoder (the seed corpora also run as
# part of every plain `make test`).
fuzz:
	@grep -rl --include='*_test.go' --exclude-dir=benchmark '^func Fuzz' . | sort | while read -r file; do \
		dir=$$(dirname "$$file"); \
		for target in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' "$$file"); do \
			echo "fuzz $$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target$$" -fuzztime=10s "$$dir/" || exit 1; \
		done; \
	done

# Go microbenchmarks (testing.B) across all packages.
bench-go:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/subgraph
	$(GO) run ./examples/ppi
	$(GO) run ./examples/ontology
	$(GO) run ./examples/steering
	$(GO) run ./examples/matchers

# Run the alignment job service locally (spool in ./netalignd-spool).
serve:
	$(GO) run ./cmd/netalignd -addr :7070 -spool netalignd-spool

# End-to-end daemon smoke test: submit, poll, kill -9 mid-job, verify
# resume-on-restart. Needs curl and python3.
smoke:
	./scripts/ci_smoke.sh

# End-to-end cluster smoke test: router + 2 backends, cache affinity on
# the owner, kill the owner and verify ring failover. Needs curl and
# python3.
cluster-smoke:
	./scripts/cluster_smoke.sh

# Regenerate the full experiment report (results/report.md).
reproduce:
	mkdir -p results
	$(GO) run ./cmd/experiments -scale 0.02 -iters 30 -report results/report.md

clean:
	$(GO) clean ./...
