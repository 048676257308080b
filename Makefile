# Distributed Data Persistency — build and reproduction targets.

GO ?= go

.PHONY: all build check test vet bench experiments examples clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full gate: vet plus the test suite under the race detector. The parallel
# sweep runner makes every experiment concurrent, so races are first-class
# correctness bugs here. The sharded differential, the skew-adaptive routing
# golden seeds, and the capacity/scaling smokes run explicitly on top: the
# sharded topology re-routes client ops across replica groups, and the
# skew-adaptive routing policies (load placement, replica reads, batched
# forwarding) re-place coordinators from sender-local state, so their
# equivalence proofs are gate-level (fwdbatch=0 byte-identity rides on the
# goldens and TestShard1MatchesDirect).
check: vet
	$(GO) test -race ./...
	$(GO) test -race ./internal/cluster/ -run 'TestSharded'
	$(GO) test -race ./internal/cluster/ -run 'TestHotSketchGoldenSeed|TestP2CSpreadDeterministic'
	$(GO) run ./cmd/ddpbench -exp capacity -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp capacity -quick -shards 4 > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick > /dev/null
	$(GO) run ./cmd/ddpbench -exp scaling -quick -placement load > /dev/null

# One testing.B benchmark per paper table/figure plus engine micro-benches.
bench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every table and figure at paper scale (takes tens of minutes
# on one core; add -quick for a smoke run).
experiments:
	$(GO) run ./cmd/ddpbench -exp all | tee results/full.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/socialfeed
	$(GO) run ./examples/banking
	$(GO) run ./examples/crashcourse
	$(GO) run ./examples/modelpicker -reads 0.9 -staleness-ok
	$(GO) run ./examples/anatomy

clean:
	$(GO) clean ./...
