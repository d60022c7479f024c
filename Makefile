# Development entry points. `make check` is what CI runs on every PR:
# vet + the partlint analyzer suite + build + full test suite, plus the
# race detector over the shared-memory sweep-orchestration layer and its
# heaviest user.

GO ?= go

.PHONY: check vet lint lint-json lint-tags staticcheck build test race conformance bench bench-smoke

check: vet lint build test race conformance

# gofmt must have nothing to say: a file it would reformat fails the target.
vet:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...

# partlint is the repository's own analyzer suite (DESIGN.md §10, §14):
# interprocedural hot-path allocation gates, sim determinism, the
# determinism-taint dataflow analyzer, the shard-protocol safety checks
# (//partib:atomic, //partib:guard, CAS claim gates), the transport SPI
# import gate (real import graph, aliased and transitive imports
# included), the typed-error no-panic contract, the completion-callback
# blocking check, and waiver hygiene (stale //partlint:allow comments
# fail the build). It runs through the go vet driver so results are
# cached per package. The nested simbench module is vetted too.
lint:
	$(GO) build -o bin/partlint ./cmd/partlint
	$(GO) vet -vettool=$(CURDIR)/bin/partlint ./...
	cd simbench && $(GO) vet -vettool=$(CURDIR)/bin/partlint ./...

# Machine-readable diagnostics: one JSON object per line, waived findings
# included (flagged "waived":true) so dashboards can track the waiver
# population. Exit status still reflects only non-waived findings.
lint-json:
	$(GO) build -o bin/partlint ./cmd/partlint
	PARTLINT_JSON=1 $(GO) vet -vettool=$(CURDIR)/bin/partlint ./...

# Build-tag matrix guard: the suite must be clean under every
# shard-relevant tag combination. The repository currently builds the
# same files under all of these, but the loop keeps tag-gated files
# (e.g. a future purego/cgo verbs split) from escaping analysis.
lint-tags:
	$(GO) build -o bin/partlint ./cmd/partlint
	for tags in "" "race"; do \
		echo "== partlint -tags '$$tags'"; \
		$(GO) vet -vettool=$(CURDIR)/bin/partlint -tags "$$tags" ./... || exit 1; \
	done

# staticcheck is not vendored; install with:
#   go install honnef.co/go/tools/cmd/staticcheck@latest
staticcheck:
	staticcheck ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The sweep pool and the tuning search are the layers where multiple
# goroutines touch shared memory; core and the mpi harness ride under
# them in parallel sweeps, so race-check all four on every PR — plus the
# sim package, whose ShardSet runs engines on a spin/park worker fleet,
# the cluster package, whose sharded-vs-serial differentials run nodes on
# that fleet, netgauge, whose gauges feed the loggp calibration consumed
# inside those sweeps, and the bench differential tests that drive
# sharded clusters end to end. The fabric line covers the multi-switch
# congestion paths (incast on the shared down-link, link saturation,
# route spread). CI runs this target, so the lists live only here.
race:
	$(GO) test -race ./internal/sim/... ./internal/cluster/... ./internal/sweep/... ./internal/tuning/... ./internal/core/... ./internal/mpi/... ./internal/netgauge/...
	$(GO) test -race -run 'TestSharded' ./internal/bench/
	$(GO) test -race -run 'Incast|SaturateLink|BandwidthNeverExceeds|Route|Congest' ./internal/fabric/

# Provider-conformance suite: every transport backend (verbs, shm)
# against the same SPI contract, including under the race detector.
conformance:
	$(GO) test ./internal/xport/...
	$(GO) test -race ./internal/xport/...

# simbench (simbench/README.md) is the repository's one benchmark; these
# are the workloads BENCHMARK.json declares. The simbench macro runs each
# with the flags in $(1), keeps its report under .bench_build/, and fails
# unless the report's final JSON line says "correct":true.
BENCH_WORKLOADS := p2p-msgrate halo-fattree sweep3d-sharded

simbench = mkdir -p .bench_build && for w in $(BENCH_WORKLOADS); do \
	bash simbench/run.sh --workload $$w $(1) > .bench_build/$$w.out || exit 1; \
	cat .bench_build/$$w.out; \
	tail -n 1 .bench_build/$$w.out | grep -q '"correct":true' || { echo "simbench: $$w: not correct" >&2; exit 1; }; \
	done

# End-to-end metrics of every workload, medians over 20 s of repeats.
bench:
	$(call simbench,--seed 1 --seconds 20 --trace 0)

# CI smoke: simbench's own tests, one second of every workload (its output
# checks included), and one iteration of each engine microbenchmark.
bench-smoke:
	cd simbench && $(GO) test ./...
	$(call simbench,--seconds 1 --trace 0)
	$(GO) test -run XXX -bench . -benchtime 1x ./internal/sim/ ./internal/fabric/ ./internal/ibv/
