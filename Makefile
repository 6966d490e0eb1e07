GO ?= go

.PHONY: build test vet race bench bench-ci bench-report perfbench telemetry-smoke cluster-smoke fuzz-smoke lint lint-self ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Race-detector sweep over every package; the concurrency property tests
# (plan reuse, pooled extraction, worker-pool shutdown, telemetry
# hammering) are written for this. Run `make vet race` for the full
# pre-merge gate — ci already covers vet, so race does not repeat it.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# One iteration per benchmark, diffed and gated against the last recorded
# run: catches benchmarks that no longer compile, that fail their internal
# assertions, or that regressed in allocs/op by >10% (deterministic, gated
# immediately) or in ns/op (>=50 ms benchmarks only; flagged at >10%,
# gated only when a confirming re-run holds past >20% — shared-hardware
# CPU steal alone moves single samples past 10%). The gated run is
# written to a scratch file so CI never mutates the committed trajectory.
bench-ci:
	$(GO) run ./cmd/bench-report -benchtime 1x -o /tmp/bench-ci.json -label ci -prev BENCH_8.json -prev-run pr8 -gate

# Append a labelled benchmark run to BENCH_8.json, diffing against the
# previous PR's trajectory (see EXPERIMENTS.md; BENCH_1.json holds the PR-1
# optimization trajectory, BENCH_3.json the post-telemetry runs, BENCH_5.json
# the raw-speed round-1 runs, BENCH_6.json the Cholesky + RFFT round,
# BENCH_7.json the ANN-identification round with the scale benchmarks,
# BENCH_8.json the cluster round: its `pr8` run is the microbenchmark
# baseline, the loadgen runs record the single-vs-4-shard comparison).
bench-report:
	$(GO) run ./cmd/bench-report -benchtime 1x -o BENCH_8.json -label local -append -prev BENCH_7.json

# Build, vet and unit-test the end-to-end benchmark harness. It is its
# own module (.perfbench/go.mod), so `go test ./...` from the root never
# compiles it: without this step a rename of an API the harness calls
# would first show up as a failed benchmark run.
perfbench:
	cd .perfbench && $(GO) vet ./... && $(GO) test -short ./...

# Boot echoimaged with the admin listener, probe /healthz and /metrics,
# and shut it down: proves the observability endpoints answer on a real
# daemon, not just under httptest.
telemetry-smoke:
	$(GO) build -o /tmp/echoimaged-smoke ./cmd/echoimaged
	@/tmp/echoimaged-smoke -listen 127.0.0.1:17465 -admin-addr 127.0.0.1:17466 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:17466/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "telemetry-smoke: /healthz never answered" >&2; exit 1; }; \
	curl -fsS http://127.0.0.1:17466/metrics | grep '^echoimage_daemon_connections_total' >/dev/null \
		|| { echo "telemetry-smoke: /metrics missing daemon series" >&2; exit 1; }; \
	kill $$pid; wait $$pid 2>/dev/null; \
	echo "telemetry-smoke: ok"

# Boot a three-shard cluster behind echoimage-router, enroll a roster
# under an open-loop loadgen burst, then drain and remove a shard while
# auth traffic keeps flowing: proves lossless shard removal end to end on
# real processes, not just under the in-package fakes. Asserts zero
# non-retryable errors and a sane p99 on the enrollment burst (generous —
# CI hardware is slow and shared; the regression gate proper runs via
# bench-report against BENCH_8.json), that the drain handoff reports
# complete on /cluster/rebalance, that remove succeeds without force,
# that the load running across the drain+remove saw zero non-retryable
# errors, that every enrolled user still authenticates as themselves
# afterwards (loadgen -verify: the zero-lost-user assertion), and that
# the drained shard flushed its users' state durably before handing off.
cluster-smoke:
	$(GO) build -o /tmp/echoimaged-cs ./cmd/echoimaged
	$(GO) build -o /tmp/echoimage-router-cs ./cmd/echoimage-router
	$(GO) build -o /tmp/echoimage-loadgen-cs ./cmd/echoimage-loadgen
	@sd0=$$(mktemp -d); sd1=$$(mktemp -d); sd2=$$(mktemp -d); \
	/tmp/echoimaged-cs -listen 127.0.0.1:17475 -admin-addr 127.0.0.1:18475 -grid 24 -state-dir $$sd0 & p1=$$!; \
	/tmp/echoimaged-cs -listen 127.0.0.1:17476 -admin-addr 127.0.0.1:18476 -grid 24 -state-dir $$sd1 & p2=$$!; \
	/tmp/echoimaged-cs -listen 127.0.0.1:17477 -admin-addr 127.0.0.1:18477 -grid 24 -state-dir $$sd2 & p3=$$!; \
	/tmp/echoimage-router-cs -listen 127.0.0.1:17464 -admin-addr 127.0.0.1:18464 \
		-shard s0=127.0.0.1:17475,127.0.0.1:18475 \
		-shard s1=127.0.0.1:17476,127.0.0.1:18476 \
		-shard s2=127.0.0.1:17477,127.0.0.1:18477 & p4=$$!; \
	trap 'kill $$p1 $$p2 $$p3 $$p4 2>/dev/null' EXIT; \
	ok=0; \
	for i in $$(seq 1 50); do \
		if curl -fsS http://127.0.0.1:18464/healthz >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.1; \
	done; \
	[ $$ok -eq 1 ] || { echo "cluster-smoke: router /healthz never answered" >&2; exit 1; }; \
	/tmp/echoimage-loadgen-cs -addr 127.0.0.1:17464 -enroll -users 4 -enroll-images 3 -beeps 6 \
		-rate 3 -duration 5s -max-nonretryable 0 -max-p99 10s \
		|| { echo "cluster-smoke: loadgen assertions failed" >&2; exit 1; }; \
	curl -fsS http://127.0.0.1:18464/cluster/shards | grep '"state": "active"' >/dev/null \
		|| { echo "cluster-smoke: shards not active on admin surface" >&2; exit 1; }; \
	/tmp/echoimage-loadgen-cs -addr 127.0.0.1:17464 -users 4 -beeps 4 \
		-rate 5 -duration 20s -max-nonretryable 0 >/tmp/cluster-smoke-bg.log 2>&1 & lg=$$!; \
	curl -fsS -X POST -d '{"action":"drain","id":"s1"}' http://127.0.0.1:18464/cluster/shards >/dev/null \
		|| { echo "cluster-smoke: drain refused" >&2; exit 1; }; \
	done_=0; \
	for i in $$(seq 1 120); do \
		if curl -fsS http://127.0.0.1:18464/cluster/rebalance | grep -q '"status": "complete"'; then done_=1; break; fi; \
		sleep 0.5; \
	done; \
	[ $$done_ -eq 1 ] || { echo "cluster-smoke: drain handoff never completed" >&2; \
		curl -fsS http://127.0.0.1:18464/cluster/rebalance >&2; exit 1; }; \
	curl -fsS -X POST -d '{"action":"remove","id":"s1"}' http://127.0.0.1:18464/cluster/shards >/dev/null \
		|| { echo "cluster-smoke: remove refused after completed handoff" >&2; exit 1; }; \
	wait $$lg || { echo "cluster-smoke: load across drain+remove failed assertions" >&2; \
		cat /tmp/cluster-smoke-bg.log >&2; exit 1; }; \
	/tmp/echoimage-loadgen-cs -addr 127.0.0.1:17464 -users 4 -beeps 6 -duration 0 -verify \
		|| { echo "cluster-smoke: users lost after drain+remove" >&2; exit 1; }; \
	ls $$sd1/user-*.json >/dev/null 2>&1 \
		|| { echo "cluster-smoke: drained shard flushed no user state" >&2; exit 1; }; \
	if curl -fsS http://127.0.0.1:18464/cluster/shards | grep -q '"id": "s1"'; then \
		echo "cluster-smoke: removed shard still on admin surface" >&2; exit 1; fi; \
	curl -fsS http://127.0.0.1:18464/metrics | grep -q '^echoimage_router_handoff_users_total [1-9]' \
		|| { echo "cluster-smoke: handoff moved no users" >&2; exit 1; }; \
	kill $$p1 $$p2 $$p3 $$p4; wait $$p1 $$p2 $$p3 $$p4 2>/dev/null; \
	rm -rf $$sd0 $$sd1 $$sd2; \
	echo "cluster-smoke: ok"

# Short fuzz run over the protocol frame reader: proves Read never
# panics on adversarial bytes and accepted frames round-trip. The corpus
# grows under $GOCACHE/fuzz across runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz=FuzzRead -fuzztime=10s ./internal/proto

# Architectural-invariant gate: the project's own analyzer suite
# (internal/analysis; rule table in README.md, invariants in DESIGN.md)
# plus a gofmt cleanliness sweep. Fails on any finding or any
# unformatted file; suppress intentional findings in source with
# //echoimage:lint-ignore <rule> <reason>.
lint:
	$(GO) run ./cmd/echoimage-lint ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: unformatted files:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi

# Self-check: the analyzer package and its driver stay clean under the
# very suite they implement — an analyzer that cannot pass its own rules
# has no authority over the rest of the tree.
lint-self:
	$(GO) run ./cmd/echoimage-lint ./internal/analysis/... ./cmd/echoimage-lint

ci: vet lint lint-self test perfbench bench-ci fuzz-smoke
