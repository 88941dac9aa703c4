GO ?= go

.PHONY: build vet test race bench bench-all verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench records the PR 10 baseline numbers (load, cold-plan query,
# warm-plan query with instrumentation disabled and enabled plus their
# ratio, resident table bytes with encoded and raw chunks and after
# write churn, per-pattern estimate-vs-actual q-errors over the
# LUBM corpus, delete + post-delete-scan points, the lock-free read
# points — reader p50/p99 during a concurrent bulk load and the
# snapshot publish cost — the durability points:
# snapshot_publish_wal (publish with WAL capture on),
# recover_snapshot_ms (cold start from an epoch-aligned snapshot) and
# wal_replay_rate (records/s through WAL-only crash recovery) — and
# the new HTTP endpoint points: http_query_warm ns/op plus
# http_query_p50/p99 request latency over loopback) to
# BENCH_PR10.json; bench-all runs the full paper figure/table benchmark
# sweep.
bench:
	DB2RDF_BENCH_OUT=BENCH_PR10.json $(GO) test -run '^TestBenchBaseline$$' -count=1 -v .

bench-all:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# verify is the tier-1 gate (see ROADMAP.md): everything must build,
# vet clean, and pass the full suite under the race detector.
verify: build vet race
