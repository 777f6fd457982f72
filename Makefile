# Mirrored by .github/workflows/ci.yml — keep the two in sync.

GO ?= go
# Machine-readable benchmark output (see bench-json).
BENCH_JSON ?= BENCH_routing.json
BENCH_PATTERN ?= BenchmarkRoute|BenchmarkOracle|BenchmarkDistance|BenchmarkManhattan|BenchmarkServe|BenchmarkMCCExtract|BenchmarkLabeling100x100|BenchmarkDistributedLabeling
# Benchmarked packages: the facade's routing/engine benchmarks and the
# analysis-layer ones beside them (labeling, distributed labeling, MCC
# extraction), the spath oracle benchmarks (ManhattanReachable and the
# cached-vs-per-pair BFS comparison), and the HTTP serving-path
# benchmarks.
BENCH_PKGS ?= . ./internal/spath ./internal/server
# Explicit iteration count: "50x" runs every matched benchmark exactly 50
# times in one invocation instead of go test's time-based calibration,
# which re-ran each benchmark function (and its fixture setup) several
# times — the seeded bench-json run spent 159s on one benchmark that way.
# The expensive 100x100/1500-fault engine is also built once per binary
# now (see benchFix in bench_test.go).
BENCH_TIME ?= 50x
# The fault-commit benchmarks run a 1000x1000-mesh snapshot rebuild per
# iteration (BenchmarkApplyFullRebuild pays a multi-second full
# precompute each time), so they get their own, much smaller iteration
# count and a separate invocation. The B2 information stage that
# dominates a commit is gated with them: its full build (InfoB2) and its
# delta rebuild (InfoRebuildB2) on the 100x100/1500-fault fixture.
APPLY_BENCH_PATTERN ?= BenchmarkApply|BenchmarkInfoB2|BenchmarkInfoRebuildB2
APPLY_BENCH_TIME ?= 2x
# Samples per benchmark: single-count runs hide regressions in variance,
# so bench-json and bench-compare repeat every benchmark BENCH_COUNT
# times and benchstat's significance filter does the judging.
BENCH_COUNT ?= 6
# benchstat baseline ref for bench-compare.
BENCH_BASE ?= origin/main

# Pinned analysis-tool versions. tools-ci installs exactly these and the
# local targets refuse to run a drifted binary, so local runs and CI see
# the same findings. Pinning lives here (not in go.mod) because the
# module itself stays dependency-free: these are toolchain dependencies,
# not library ones. meshlint needs no pin at all — its checked-in source
# under internal/lint IS the version.
STATICCHECK_VERSION ?= 2025.1
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build vet fmt-check staticcheck govulncheck lint tools-ci test test-examples examples-smoke race bench-smoke sim-smoke bench-json bench-compare serve loadgen smoke fuzz-smoke recover-smoke chaos-smoke cluster-smoke metrics-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file needs gofmt; prints the offenders.
fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# Installs the pinned analysis tools (network required). CI runs this
# before its check steps; locally it is opt-in.
tools-ci:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)

# Runs the pinned staticcheck. A drifted binary always fails (local and
# CI must see the same findings); a missing one skips with a hint
# locally — the gate never requires network access — but FAILS when CI
# or STRICT_TOOLS is set, closing the old skip-if-absent hole that let a
# CI image without the tool pass silently.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		got="$$(staticcheck -version 2>/dev/null)"; \
		case "$$got" in \
		*"$(STATICCHECK_VERSION)"*) staticcheck ./... ;; \
		*) echo "staticcheck version drift: have '$$got', want $(STATICCHECK_VERSION) (run: make tools-ci)"; exit 1 ;; \
		esac; \
	elif [ -n "$$CI$$STRICT_TOOLS" ]; then \
		echo "staticcheck $(STATICCHECK_VERSION) required in CI (run: make tools-ci)"; exit 1; \
	else \
		echo "staticcheck not installed; skipping (make tools-ci installs $(STATICCHECK_VERSION))"; \
	fi

# Scans for known vulnerabilities in dependency and stdlib usage.
# Network-dependent (it fetches the vulnerability DB): skips with a hint
# when the binary is absent locally, fails under CI/STRICT_TOOLS.
govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	elif [ -n "$$CI$$STRICT_TOOLS" ]; then \
		echo "govulncheck required in CI (run: make tools-ci)"; exit 1; \
	else \
		echo "govulncheck not installed; skipping (make tools-ci installs $(GOVULNCHECK_VERSION))"; \
	fi

# meshlint: the repo's own invariant analyzers (internal/lint, run via
# cmd/meshlint; see ARCHITECTURE.md "Enforced invariants"). Blocking —
# a finding fails check and CI. Self-contained on the standard library,
# so the checked-in analyzer source is the pinned version: local runs
# and CI cannot drift and no install step exists to skip.
lint:
	$(GO) run ./cmd/meshlint ./...

# bench/ is its own module (repro/bench), so ./... does not reach it;
# -short runs its checker, stats, spec and small fixture tests.
test:
	$(GO) test ./...
	cd bench && $(GO) test -short ./...

# Gate that every godoc Example builds and its Output matches — the API
# reference's runnable examples are tests, not prose.
test-examples:
	$(GO) test -run Example ./...

# Runs every program under examples/ (each takes a few seconds at most):
# test-examples covers only the godoc Examples, so without this an
# example program that fails goes unnoticed.
examples-smoke:
	@for e in quickstart noc infocost bluegene; do \
		echo "go run ./examples/$$e"; \
		$(GO) run ./examples/$$e >/dev/null || exit 1; \
	done

# The race target runs the full suite (including the engine's concurrent
# Route-during-Swap tests, the batch-cancellation tests, and the RB2-vs-BFS
# oracle property tests) under the race detector; -short trims the
# hammering loops for slow runners.
race:
	$(GO) test -race -short ./...

# One-iteration benchmark smoke: compiles and exercises the serial and
# parallel RB2 routing benchmarks without measuring.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkRouteRB2' -benchtime 1x .

# Routed-sweep smoke: meshsim at its default 100x100 mesh and 1500
# faults, one trial of ten pairs. meshsim exits non-zero when an
# algorithm routed no pair, so a sweep that silently routes nothing
# fails here.
sim-smoke:
	$(GO) run ./cmd/meshsim -trials 1 -pairs 10

# Machine-readable benchmarks: runs the routing benchmarks with `go test
# -json` and writes the event stream to $(BENCH_JSON) (benchmark results
# appear as Output events; one JSON object per line; allocs/op included
# via -benchmem). This file seeds the BENCH_*.json measurement trajectory
# — commit snapshots to track routing throughput across PRs.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem -json $(BENCH_PKGS) > $(BENCH_JSON)
	$(GO) test -run '^$$' -bench '$(APPLY_BENCH_PATTERN)' -benchtime $(APPLY_BENCH_TIME) -count $(BENCH_COUNT) -benchmem -json . >> $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# Old-vs-new benchmark comparison against $(BENCH_BASE) via benchstat
# (skipped with a hint when benchstat is not installed). Each side runs
# $(BENCH_COUNT) samples per benchmark; the target then FAILS when
# benchstat reports a statistically significant sec/op regression —
# rows benchstat marks "~" (not significant at its default alpha) never
# gate, so noise can't fail the build but a real slowdown does. CI runs
# this same target on every PR.
bench-compare:
	@if ! command -v benchstat >/dev/null 2>&1; then \
		echo "benchstat not installed; skipping (go install golang.org/x/perf/cmd/benchstat@latest)"; \
		exit 0; \
	fi; \
	tmp=$$(mktemp -d); status=1; \
	if git worktree add -q $$tmp/base $(BENCH_BASE); then \
		( cd $$tmp/base && $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem $(BENCH_PKGS) > $$tmp/old.txt 2>/dev/null || true ); \
		( cd $$tmp/base && $(GO) test -run '^$$' -bench '$(APPLY_BENCH_PATTERN)' -benchtime $(APPLY_BENCH_TIME) -count $(BENCH_COUNT) -benchmem . >> $$tmp/old.txt 2>/dev/null || true ); \
		if $(GO) test -run '^$$' -bench '$(BENCH_PATTERN)' -benchtime $(BENCH_TIME) -count $(BENCH_COUNT) -benchmem $(BENCH_PKGS) > $$tmp/new.txt && \
			$(GO) test -run '^$$' -bench '$(APPLY_BENCH_PATTERN)' -benchtime $(APPLY_BENCH_TIME) -count $(BENCH_COUNT) -benchmem . >> $$tmp/new.txt; then \
			benchstat $$tmp/old.txt $$tmp/new.txt; \
			if benchstat -filter '.unit:sec/op' $$tmp/old.txt $$tmp/new.txt | grep -E '\+[0-9.]+% \(p='; then \
				echo "bench-compare: FAIL: significant sec/op regression vs $(BENCH_BASE) (rows above)"; \
			else status=0; fi; \
		fi; \
		git worktree remove --force $$tmp/base; \
	fi; \
	rm -rf $$tmp; exit $$status

# Run the serving daemon locally (see cmd/meshd/README.md for the curl
# session; override flags with SERVE_FLAGS).
SERVE_FLAGS ?= -addr 127.0.0.1:8080
serve:
	$(GO) run ./cmd/meshd $(SERVE_FLAGS)

# Drive a running meshd with the load generator (LOADGEN_FLAGS to tune).
LOADGEN_FLAGS ?= -addr 127.0.0.1:8080 -n 64 -faults 400 -requests 2000 -workers 16 -churn 50ms
loadgen:
	$(GO) run ./cmd/meshload $(LOADGEN_FLAGS)

# End-to-end serving smoke (CI gate): boot meshd on an ephemeral port,
# run a meshload pass (1 mesh, 500 requests, fault transactions churning
# mid-run), then SIGTERM the daemon to exercise the graceful drain.
# meshload exits non-zero if any response leaks outside the documented
# error taxonomy (5xx, transport errors, undecodable bodies).
smoke:
	@set -e; tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/meshd ./cmd/meshd; \
	$(GO) build -o $$tmp/meshload ./cmd/meshload; \
	$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr -drain 5s & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		if $$tmp/meshload -addr $$(cat $$tmp/addr) -n 32 -faults 80 \
			-requests 500 -workers 8 -churn 25ms; then status=0; fi; \
	else echo "meshd did not start"; fi; \
	kill -TERM $$pid 2>/dev/null || true; wait $$pid || status=1; \
	rm -rf $$tmp; exit $$status

# Storage-chaos smoke (CI gate): boot meshd with an armed errfs
# failpoint (the 8th WAL fsync fails, landing mid-churn) plus admission
# control, and drive it with the chaos-aware load generator. -chaos
# makes STORAGE and residual RESOURCE_EXHAUSTED expected outcomes while
# anything outside the documented taxonomy (5xx, transport errors,
# undecodable bodies) still fails the run. Then assert the degradation
# ladder over curl: /healthz reports degraded (200 by default, 503 under
# ?strict=1), routes on the degraded mesh still serve, commits refuse
# with STORAGE. Finally kill -9 and reboot the same data dir without the
# failpoint: strict health is ok again and a commit succeeds — the sick
# journal lost no durable state.
chaos-smoke:
	@set -e; tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/meshd ./cmd/meshd; \
	$(GO) build -o $$tmp/meshload ./cmd/meshload; \
	$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr -data-dir $$tmp/data \
		-fail sync:path=wal.log:nth=8:err=eio \
		-tenant-rate 2000 -tenant-burst 500 -max-inflight 64 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		addr=$$(cat $$tmp/addr); \
		if $$tmp/meshload -addr $$addr -chaos -keep -mesh chaos -duration 3s \
			-requests 0 -n 16 -faults 20 -workers 4 -churn 50ms; then \
			status=0; \
			curl -s http://$$addr/healthz | grep -q '"status":"degraded"' \
				|| { echo "chaos-smoke: healthz not degraded"; status=1; }; \
			[ "$$(curl -s -o /dev/null -w '%{http_code}' "http://$$addr/healthz?strict=1")" = 503 ] \
				|| { echo "chaos-smoke: strict healthz not 503"; status=1; }; \
			[ "$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://$$addr/v1/meshes/chaos/route \
				-d '{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}')" = 200 ] \
				|| { echo "chaos-smoke: route on degraded mesh not 200"; status=1; }; \
			curl -s -X POST http://$$addr/v1/meshes/chaos/faults \
				-d '{"ops":[{"op":"add","at":{"x":9,"y":9}}]}' | grep -q '"STORAGE"' \
				|| { echo "chaos-smoke: commit on sick journal not STORAGE"; status=1; }; \
		fi; \
	else echo "meshd did not start"; fi; \
	kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
	if [ $$status -eq 0 ]; then \
		rm -f $$tmp/addr; status=1; \
		$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr -data-dir $$tmp/data & pid=$$!; \
		for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
		if [ -s $$tmp/addr ]; then \
			addr=$$(cat $$tmp/addr); \
			if [ "$$(curl -s -o $$tmp/health -w '%{http_code}' "http://$$addr/healthz?strict=1")" = 200 ] \
				&& grep -q '"status":"ok"' $$tmp/health; then \
				if curl -sf -X POST http://$$addr/v1/meshes/chaos/faults \
					-d '{"ops":[{"op":"add","at":{"x":9,"y":9}}]}' >/dev/null; then \
					echo "chaos-smoke: degraded under fault, recovered on reboot, committing again"; \
					status=0; \
				else echo "chaos-smoke: commit after recovery failed"; fi; \
			else echo "chaos-smoke: strict healthz after reboot not ok: $$(cat $$tmp/health)"; fi; \
			kill -TERM $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
		else echo "chaos-smoke: rebooted meshd did not start"; fi; \
	fi; \
	rm -rf $$tmp; exit $$status

# Cluster replication smoke (CI gate): boot a journaled leader plus two
# read-only followers tailing it, churn fault transactions through the
# cluster-aware load generator (a follower is listed first, so every run
# takes the NOT_LEADER redirect to the leader), wait until both followers
# serve the leader's fault list byte-identically, then kill -9 the leader
# and require the followers to keep serving reads at the replicated
# snapshot while refusing commits with NOT_LEADER carrying the (dead)
# leader's address.
cluster-smoke:
	@set -e; tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/meshd ./cmd/meshd; \
	$(GO) build -o $$tmp/meshload ./cmd/meshload; \
	$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr_l -data-dir $$tmp/data & lpid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr_l ] && break; sleep 0.1; done; \
	f1pid=; f2pid=; \
	if [ -s $$tmp/addr_l ]; then \
		leader=$$(cat $$tmp/addr_l); \
		$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr_f1 -follow $$leader -resync 200ms & f1pid=$$!; \
		$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr_f2 -follow $$leader -resync 200ms & f2pid=$$!; \
		for i in $$(seq 1 100); do [ -s $$tmp/addr_f1 ] && [ -s $$tmp/addr_f2 ] && break; sleep 0.1; done; \
		if [ -s $$tmp/addr_f1 ] && [ -s $$tmp/addr_f2 ]; then \
			f1=$$(cat $$tmp/addr_f1); f2=$$(cat $$tmp/addr_f2); \
			if $$tmp/meshload -cluster $$f1,$$leader,$$f2 -keep -mesh cm -n 16 -faults 20 \
				-requests 300 -workers 4 -churn 50ms; then \
				status=0; \
				for i in $$(seq 1 50); do \
					curl -s http://$$leader/v1/meshes/cm/faults > $$tmp/want; \
					curl -s http://$$f1/v1/meshes/cm/faults > $$tmp/got1; \
					curl -s http://$$f2/v1/meshes/cm/faults > $$tmp/got2; \
					cmp -s $$tmp/want $$tmp/got1 && cmp -s $$tmp/want $$tmp/got2 && break; \
					sleep 0.1; \
				done; \
				cmp -s $$tmp/want $$tmp/got1 || { echo "cluster-smoke: follower 1 never converged"; status=1; }; \
				cmp -s $$tmp/want $$tmp/got2 || { echo "cluster-smoke: follower 2 never converged"; status=1; }; \
				kill -9 $$lpid 2>/dev/null; wait $$lpid 2>/dev/null || true; \
				for f in $$f1 $$f2; do \
					curl -s http://$$f/v1/meshes/cm/faults > $$tmp/after \
						|| { echo "cluster-smoke: $$f stopped serving after leader kill"; status=1; }; \
					cmp -s $$tmp/want $$tmp/after \
						|| { echo "cluster-smoke: $$f diverged after leader kill"; status=1; }; \
					[ "$$(curl -s -o /dev/null -w '%{http_code}' -X POST http://$$f/v1/meshes/cm/route \
						-d '{"src":{"x":0,"y":0},"dst":{"x":3,"y":3}}')" = 200 ] \
						|| { echo "cluster-smoke: route on $$f after leader kill not 200"; status=1; }; \
					curl -s -X POST http://$$f/v1/meshes/cm/faults \
						-d '{"ops":[{"op":"add","at":{"x":9,"y":9}}]}' | grep -q '"NOT_LEADER"' \
						|| { echo "cluster-smoke: commit on $$f not NOT_LEADER"; status=1; }; \
				done; \
				[ $$status -eq 0 ] && echo "cluster-smoke: followers byte-identical and serving reads after leader kill -9"; \
			fi; \
		else echo "follower meshd did not start"; fi; \
	else echo "leader meshd did not start"; fi; \
	kill -9 $$lpid 2>/dev/null || true; \
	kill -TERM $$f1pid $$f2pid 2>/dev/null || true; \
	wait 2>/dev/null || true; \
	rm -rf $$tmp; exit $$status

# Telemetry smoke (CI gate): boot a journaled leader with admission
# control and JSON access logs, plus one follower tailing it, drive a
# meshload pass, then scrape GET /metrics twice and assert (1) the route
# counter is monotone non-decreasing across scrapes with real traffic in
# between, (2) every documented metric family (meshd -list-metrics, the
# same list server.MetricNames() exports) appears across the leader and
# follower scrapes, (3) one meshload mutation's X-Request-Id appears
# in both nodes' access logs — the cluster-wide correlation contract —
# and (4) /metrics is the serving port's only stats surface: /varz,
# /debug/vars and /debug/pprof/ answer 404 there, while the leader's
# -debug-addr listener (bound address read from its boot log) serves
# /debug/pprof/.
metrics-smoke:
	@set -e; tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/meshd ./cmd/meshd; \
	$(GO) build -o $$tmp/meshload ./cmd/meshload; \
	$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr_l -data-dir $$tmp/data \
		-tenant-rate 5000 -tenant-burst 1000 -max-inflight 64 \
		-debug-addr 127.0.0.1:0 -log json 2> $$tmp/log_l & lpid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr_l ] && break; sleep 0.1; done; \
	fpid=; \
	if [ -s $$tmp/addr_l ]; then \
		leader=$$(cat $$tmp/addr_l); \
		$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr_f -follow $$leader \
			-resync 200ms -log json 2> $$tmp/log_f & fpid=$$!; \
		for i in $$(seq 1 100); do [ -s $$tmp/addr_f ] && break; sleep 0.1; done; \
		if [ -s $$tmp/addr_f ]; then \
			follower=$$(cat $$tmp/addr_f); \
			if $$tmp/meshload -addr $$leader -keep -mesh tm -n 16 -faults 20 \
				-requests 200 -workers 4 -tenants 2; then \
				curl -s http://$$leader/metrics > $$tmp/scrape1; \
				for i in 1 2 3 4 5; do \
					curl -s -X POST http://$$leader/v1/meshes/tm/route \
						-d '{"src":{"x":0,"y":0},"dst":{"x":9,"y":9}}' >/dev/null || true; \
				done; \
				curl -s http://$$leader/metrics > $$tmp/scrape2; \
				for i in $$(seq 1 50); do \
					curl -s http://$$follower/metrics > $$tmp/scrape_f; \
					grep -q 'meshd_replication_applied_version{mesh="tm"}' $$tmp/scrape_f && break; \
					sleep 0.1; \
				done; \
				status=0; \
				r1=$$(sed -n 's/^meshd_routes_total{mesh="tm"} //p' $$tmp/scrape1); \
				r2=$$(sed -n 's/^meshd_routes_total{mesh="tm"} //p' $$tmp/scrape2); \
				a1=$$(sed -n 's/^meshd_admission_admitted_total //p' $$tmp/scrape1); \
				a2=$$(sed -n 's/^meshd_admission_admitted_total //p' $$tmp/scrape2); \
				if [ -z "$$r1" ] || [ -z "$$r2" ] || [ "$$r2" -lt "$$r1" ]; then \
					echo "metrics-smoke: meshd_routes_total not monotone: '$$r1' -> '$$r2'"; status=1; \
				elif [ -z "$$a1" ] || [ -z "$$a2" ] || [ "$$a2" -le "$$a1" ]; then \
					echo "metrics-smoke: meshd_admission_admitted_total did not grow under traffic: '$$a1' -> '$$a2'"; status=1; \
				else echo "metrics-smoke: counters monotone: routes $$r1 -> $$r2, admitted $$a1 -> $$a2"; fi; \
				$$tmp/meshd -list-metrics > $$tmp/names; \
				cat $$tmp/scrape2 $$tmp/scrape_f > $$tmp/scrapes; \
				while read -r name; do \
					grep -q "^# TYPE $$name " $$tmp/scrapes \
						|| { echo "metrics-smoke: documented metric $$name missing from scrapes"; status=1; }; \
				done < $$tmp/names; \
				for path in /varz /debug/vars /debug/pprof/; do \
					[ "$$(curl -s -o /dev/null -w '%{http_code}' http://$$leader$$path)" = 404 ] \
						|| { echo "metrics-smoke: serving port answers $$path, want 404"; status=1; }; \
				done; \
				debug=$$(sed -n 's|.*debug endpoints (pprof) on http://\([^/]*\)/debug/.*|\1|p' $$tmp/log_l); \
				if [ -n "$$debug" ] && [ "$$(curl -s -o /dev/null -w '%{http_code}' http://$$debug/debug/pprof/)" = 200 ]; then \
					echo "metrics-smoke: pprof served on -debug-addr $$debug, not on the serving port"; \
				else echo "metrics-smoke: -debug-addr listener '$$debug' does not serve /debug/pprof/"; status=1; fi; \
				$$tmp/meshload -addr $$follower -mesh tm2 -n 8 -faults 4 \
					-requests 30 -rate 60 -workers 2 >/dev/null 2>&1 || true; \
				id=$$(grep '"code":"NOT_LEADER"' $$tmp/log_f | head -1 | sed -n 's/.*"id":"\([^"]*\)".*/\1/p'); \
				if [ -n "$$id" ] && grep -q "\"id\":\"$$id\"" $$tmp/log_l; then \
					echo "metrics-smoke: request ID $$id correlated across follower and leader logs"; \
				else \
					echo "metrics-smoke: no redirected mutation ID found in both access logs"; status=1; \
				fi; \
			fi; \
		else echo "follower meshd did not start"; fi; \
	else echo "leader meshd did not start"; fi; \
	kill -TERM $$lpid $$fpid 2>/dev/null || true; wait 2>/dev/null || true; \
	rm -rf $$tmp; exit $$status

# Native Go fuzz smoke over the four trust boundaries: the journal's
# frame decoder (corrupt and truncated WAL records must error, never
# panic — the property crash recovery stands on), the wire request
# decoders (arbitrary route, batch and faults bodies must get 200 or a
# documented non-INTERNAL code), the follower's watch-stream handling
# (arbitrary NDJSON must never move the applied version back) and the
# failpoint spec parser (every accepted spec round-trips through
# Fault.String). FUZZTIME bounds each run (CI uses a short burst).
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRecord$$' -fuzztime $(FUZZTIME) ./internal/journal
	$(GO) test -run '^$$' -fuzz '^FuzzWireRequests$$' -fuzztime $(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzFollowerStream$$' -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime $(FUZZTIME) ./internal/errfs

# Crash-recovery smoke (CI gate): boot meshd with a -data-dir, commit
# fault transactions over two meshes via curl, SIGKILL the daemon, boot a
# second one from the same directory, and require byte-identical mesh
# info (fault count + snapshot version) and fault listings.
recover-smoke:
	@set -e; tmp=$$(mktemp -d); status=1; \
	$(GO) build -o $$tmp/meshd ./cmd/meshd; \
	$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr -data-dir $$tmp/data -checkpoint-every 4 & pid=$$!; \
	for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
	if [ -s $$tmp/addr ]; then \
		addr=$$(cat $$tmp/addr); \
		curl -sf -X POST http://$$addr/v1/meshes -d '{"name":"m1","width":16,"height":16}' >/dev/null; \
		curl -sf -X POST http://$$addr/v1/meshes -d '{"name":"m2","width":8,"height":24}' >/dev/null; \
		for i in 1 2 3 4 5 6; do \
			curl -sf -X POST http://$$addr/v1/meshes/m1/faults -d "{\"ops\":[{\"op\":\"add\",\"at\":{\"x\":$$i,\"y\":$$i}}]}" >/dev/null; \
		done; \
		curl -sf -X POST http://$$addr/v1/meshes/m2/faults -d '{"ops":[{"op":"inject_random","count":20,"seed":9}]}' >/dev/null; \
		for m in m1 m2; do \
			curl -sf http://$$addr/v1/meshes/$$m > $$tmp/before_$$m; \
			curl -sf http://$$addr/v1/meshes/$$m/faults > $$tmp/before_faults_$$m; \
		done; \
		kill -9 $$pid 2>/dev/null; wait $$pid 2>/dev/null || true; \
		rm -f $$tmp/addr; \
		$$tmp/meshd -addr 127.0.0.1:0 -addr-file $$tmp/addr -data-dir $$tmp/data -checkpoint-every 4 & pid=$$!; \
		for i in $$(seq 1 100); do [ -s $$tmp/addr ] && break; sleep 0.1; done; \
		addr=$$(cat $$tmp/addr); status=0; \
		for m in m1 m2; do \
			curl -sf http://$$addr/v1/meshes/$$m > $$tmp/after_$$m || status=1; \
			curl -sf http://$$addr/v1/meshes/$$m/faults > $$tmp/after_faults_$$m || status=1; \
			if cmp -s $$tmp/before_$$m $$tmp/after_$$m && cmp -s $$tmp/before_faults_$$m $$tmp/after_faults_$$m; then \
				echo "recover-smoke: $$m identical after kill -9: $$(cat $$tmp/after_$$m)"; \
			else \
				echo "recover-smoke: $$m MISMATCH"; \
				diff $$tmp/before_$$m $$tmp/after_$$m || true; \
				diff $$tmp/before_faults_$$m $$tmp/after_faults_$$m || true; status=1; \
			fi; \
		done; \
	else echo "meshd did not start"; fi; \
	kill -TERM $$pid 2>/dev/null || true; wait $$pid 2>/dev/null || true; \
	rm -rf $$tmp; exit $$status

check: fmt-check vet build staticcheck lint test test-examples examples-smoke race bench-smoke sim-smoke fuzz-smoke govulncheck
