# Tier-1 verification plus the race-detector pass over the packages with
# concurrent traversal code, the fault-injection robustness suite, and the
# documentation gate.

RACE_PKGS := ./internal/bound ./internal/pareto ./internal/fusion \
             ./internal/traverse ./internal/mapping \
             ./internal/multilevel ./internal/simba \
             ./internal/shard ./internal/serve \
             ./internal/workload ./internal/fleet ./internal/cliutil \
             ./internal/store

# The fault-injection and scheduling suites: every scripted I/O failure,
# kill and cancellation must end in a successful retry or a named,
# resumable error — never a corrupt artifact. Backoffs in these tests are
# already shortened to milliseconds.
ROBUST_PKGS := ./internal/shard ./internal/fleet ./internal/traverse

.PHONY: all vet build test race robust serve fleet chaos store fuzz bench-smoke docs loc ci

all: ci

vet:
	go vet ./...

# Documentation gate: formatting, vet, doc-comment coverage (package
# docs everywhere; full exported-identifier docs in the core packages),
# docs/ cross-references, and the zero-caller rule (every function under
# internal/ has a non-test caller, bar an allowlist with reasons) — see
# internal/tools/doccheck.
docs:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; fi
	go vet ./...
	go run ./internal/tools/doccheck

# Go line counts, non-test and test, in four groups: the infrastructure
# (fleet with its chaos harness, serve, shard, store, workload, cliutil),
# the derivation model (the rest of internal/, tools aside), cmd/ and
# bench/. Informational, with no threshold: it is the one command behind
# the net line delta each change reports. `make loc BASE=<rev>` also
# prints the table of <rev>, extracted with git archive into a temporary
# directory (the working tree is never touched), and the per-group
# difference from it to the working tree.
INFRA_DIRS := $(addprefix internal/,fleet serve shard store workload cliutil)

loc:
	@count() { \
		model=$$(cd "$$1" && for d in internal/*/; do d=$${d%/}; \
			case " $(INFRA_DIRS) internal/tools " in *" $$d "*) ;; *) printf '%s ' $$d ;; esac; done); \
		for g in "infrastructure:$(INFRA_DIRS)" "model:$$model" "cmd:cmd" "bench:bench"; do \
			dirs=$${g#*:}; \
			src=$$(cd "$$1" && find $$dirs -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
			tst=$$(cd "$$1" && find $$dirs -name '*_test.go' -exec cat {} + | wc -l); \
			echo "$${g%%:*} $$src $$tst"; \
		done; }; \
	table() { awk -v fmt="$$1" 'BEGIN { printf "%-15s %7s %7s\n", "group", "source", "test" } \
		ARGC == 3 && NR == FNR { s[$$1] = $$2; t[$$1] = $$3; next } \
		{ printf fmt, $$1, $$2 - s[$$1], $$3 - t[$$1] }' "$$2" $${3:+"$$3"}; }; \
	tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	count . > "$$tmp/head" && table '%-15s %7d %7d\n' "$$tmp/head" && \
	if [ -n "$(BASE)" ]; then \
		git rev-parse --verify -q "$(BASE)^{commit}" > /dev/null || { echo "loc: unknown revision $(BASE)" >&2; exit 1; }; \
		mkdir "$$tmp/tree" && git archive "$(BASE)" | tar -x -C "$$tmp/tree" && \
		count "$$tmp/tree" > "$$tmp/base" && \
		echo && echo "$(BASE)" && table '%-15s %7d %7d\n' "$$tmp/base" && \
		echo && echo "difference from $(BASE)" && table '%-15s %+7d %+7d\n' "$$tmp/base" "$$tmp/head"; \
	fi

build:
	go build ./...

test:
	go test ./...

race:
	go test -race $(RACE_PKGS)

robust:
	go test -race -count=1 $(ROBUST_PKGS)

# The derivation-server suite under the race detector: deadlines,
# cache-stampede single-flight, saturation shedding, panic containment,
# drain, and kill-and-resume through the spool directory.
serve:
	go test -race -count=1 ./internal/serve

# The distributed-fleet suite under the race detector: coordinator
# dispatch and allocation, bounded retries with retry-elsewhere, digest
# quarantine, speculative re-execution, kill-a-worker and
# kill-the-coordinator parity, and degraded merges (see
# docs/fleet-protocol.md).
fleet:
	go test -race -count=1 ./internal/fleet

# The transport-chaos robustness matrix under the race detector: scripted
# hangs, connection refusals, mid-body partitions, 5xx flaps, slow drips
# and Retry-After storms injected per worker (internal/fleet/chaos); every
# fault class must end in a byte-identical merge or a correctly annotated
# degraded envelope, open breakers must shed load, and faster workers
# must receive more shards (docs/fleet-protocol.md, "Health, membership
# & breakers").
chaos:
	go test -race -count=1 -run '^TestChaos' ./internal/fleet

# The durable curve-store suite under the race detector: checksummed
# content-addressed persistence, the storage fault matrix (torn writes,
# kill-mid-write, zeroed tails, flipped digests, stale engines, ENOSPC,
# concurrent writers), quarantine-and-re-derive, LRU GC, restart warmth
# and the server/warmer shared-directory paths (docs/curve-store.md).
store:
	go test -race -count=1 ./internal/store
	go test -race -count=1 ./internal/cliutil -run 'Store|Warm'
	go test -race -count=1 ./internal/serve -run 'Store|Restart|Warmer|Corrupt|Degraded206'

# Timed fuzz passes over the seven parsers of untrusted input: the curve
# decoder every served, stored and merged curve goes through (arbitrary
# bytes must be rejected or decode to a valid staircase that round-trips
# byte for byte), the Einsum parser every served einsum and chain request
# goes through (an accepted string must re-parse from its rendering to the
# same workload), the workload Spec decoder every fleet shard request,
# spool and resumed manifest goes through (an accepted spec must re-encode
# canonically and describe and digest without panicking), the shard
# partial decoder every resumed checkpoint, merged shard file and fleet
# worker response goes through (an accepted partial must validate and
# round-trip to an equal value), the curve-store entry decoder every
# disk-tier read goes through (an accepted entry must validate and
# round-trip to the same encoding), the /v1/curve request decoder (an
# accepted request's spec must survive the spool encoding with the same
# derivation identity), and the /v1/shard request path up to the
# derivation (any body must be rejected with a 400 code or compile to a
# job with a valid manifest). A failing input is written under the
# package's testdata/fuzz and replays in every later go test.
fuzz:
	go test ./internal/pareto -run '^$$' -fuzz '^FuzzCurveUnmarshal$$' -fuzztime 10s
	go test ./internal/einsum -run '^$$' -fuzz '^FuzzEinsumParse$$' -fuzztime 10s
	go test ./internal/workload -run '^$$' -fuzz '^FuzzSpecDecode$$' -fuzztime 10s
	go test ./internal/shard -run '^$$' -fuzz '^FuzzPartialDecode$$' -fuzztime 10s
	go test ./internal/store -run '^$$' -fuzz '^FuzzStoreEntryDecode$$' -fuzztime 10s
	go test ./internal/serve -run '^$$' -fuzz '^FuzzSpecFromRequest$$' -fuzztime 10s
	go test ./internal/serve -run '^$$' -fuzz '^FuzzShardRequest$$' -fuzztime 10s

# Golden-checked benchmark smoke: short orobench runs of the two
# in-process derivation workloads and of the sharded fleet
# (bench/README.md). Every derived curve is compared byte for byte with
# bench/testdata/golden.json, and every fleet-merged and served curve with
# its in-process derivation; any mismatch exits non-zero, so this gates
# curve identity through shard merges as well. The timings of
# a 2-second run are not evidence; run bench/run.sh at its default length
# for numbers.
bench-smoke:
	bash bench/run.sh --workload derive-conv --seconds 2
	bash bench/run.sh --workload derive-mixed --seconds 2
	bash bench/run.sh --workload shard-fleet --seconds 2

ci: vet build test race robust serve fleet chaos store fuzz docs loc bench-smoke
