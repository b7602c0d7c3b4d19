# Shared entry points for humans and CI. `make ci` runs build, lint, test,
# race and bench. .github/workflows/ci.yml runs those but build, and more,
# so a green `make ci` is not yet a green pipeline. The pipeline also runs `make fuzz`,
# `make loc`, `make epochs-smoke`, `make scaling-smoke`, `make dist-demo` and
# `make obs-smoke`; it calls `go run ./cmd/benchdiff` (the gate `make
# benchdiff` runs, plus a JSON verdict) and `go run ./cmd/lereport`
# directly; it tests on Go 1.21, 1.22 and 1.24 (the last runs the
# go1.24-only weak-pointer test), which compiles every package, since each
# has a test file: `make build` is a local target CI does not call.
# `make fuzz` runs each of its ten fuzzers for FUZZTIME (default 10s);
# plain `go test` only replays their seed corpora.

GO ?= go

.PHONY: all build test race fuzz bench loc epochs-smoke scaling-smoke obs-smoke dist-demo bench-artifact benchdiff report baseline lint fmt ci clean

all: build

# ./... covers the library and cmds.
build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the code that starts goroutines: the experiment
# orchestrator (trial workers, each running the simulator, protocols and
# adversary on its own network; the epoch sweep tests keep the RunEpochs
# engine under it too), the real-transport backend (per-node drivers, port
# readers, the coordinator, the concurrent TCP handshake) and ledist's
# frame-based control plane, whose reader goroutines feed the coordinator's
# fold. The root's TestTransport* runs real protocols over chan, pipe and
# tcp, so every port reader of a node feeds its one shared queue under the
# detector, and TestTransportStepsWhatSimSteps counts the steps of nodes
# released only in their visit-set rounds, from their concurrent drivers.
# The root's TestRunReuses* hand a Network's kept simulator and its kept
# wire cluster from run to run, the cluster parked by one run's goroutines
# and reset by the next run's, on chan, pipe and tcp, and from four
# goroutines at once in TestRunReusesNetworkConcurrently.
# The simulator steps every round on the calling goroutine, and
# internal/sim, core, baseline, adversary and obs start no goroutine and
# drive neither transport nor harness, so their own tests have nothing for
# the detector to find.
race:
	$(GO) test -race ./internal/harness/... ./internal/transport/... ./cmd/ledist
	$(GO) test -race -run '^TestTransport|^TestRunReuses' .

# The decoders of bytes from outside the process — the bench artifact
# reader, the transport frame and report codecs, the TCP Hello body an
# unauthenticated peer sends first, the core and baseline payload codecs,
# the ledist plan frame a node process builds its run from and the outcome
# frame it ends its run with — the
# declarative adversary spec every fault flag and sweep cell builds from,
# and the public edge-list constructor. One `go test -fuzz`
# per target, because -fuzz takes a single fuzzer.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadArtifact$$' -fuzztime $(FUZZTIME) ./internal/harness
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeReport$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzParseHello$$' -fuzztime $(FUZZTIME) ./internal/transport
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime $(FUZZTIME) ./internal/baseline
	$(GO) test -run '^$$' -fuzz '^FuzzSpec$$' -fuzztime $(FUZZTIME) ./internal/adversary
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePlan$$' -fuzztime $(FUZZTIME) ./cmd/ledist
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeOutcome$$' -fuzztime $(FUZZTIME) ./cmd/ledist
	$(GO) test -run '^$$' -fuzz '^FuzzNewNetworkFromEdges$$' -fuzztime $(FUZZTIME) .

# Bench smoke: every benchmark once — a does-it-run check, not a
# measurement (one iteration times nothing). Speed is measured by
# `go run ./bench` (BENCHMARK.json), and while working on the protocol
# layer by `go test -run '^$$' -bench Election -benchtime 20x .`.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Epoch smoke: the quick repeated-election scenarios (seed-chained crash-
# recover and revoke histories under the static and traffic-adaptive
# adversary rungs) end to end through anonlead.RunEpochs, archived as the
# separate BENCH_epochs.json artifact. CI's bench-smoke job runs this (the
# fault ladders F1-F5 run in bench-gate's gate sweep).
epochs-smoke:
	$(GO) run ./cmd/lebench -exp epochs -quick -json BENCH_epochs.json

# Scaling smoke: one cold 100k-node expander cell under the streaming
# estimate regime (budget: well under a minute). CI's bench-smoke job runs
# this and archives BENCH_scaling.json.
scaling-smoke:
	$(GO) run ./cmd/lebench -exp scaling -quick -json BENCH_scaling.json

# Observability smoke: the gate sweep plus its span trace rendered into
# the phase-breakdown table. CI's bench-gate job runs this as its
# sweep and archives the side files; they are also the easiest local entry
# into "where does a sweep spend its time" (open TRACE_lebench.json in
# Perfetto, `go tool pprof CPU_lebench.pprof`). The per-round histograms of
# `lebench -round-profile` are not part of it: go test ./cmd/lebench covers
# that flag.
obs-smoke: bench-artifact
	$(GO) run ./cmd/lereport -phases TRACE_lebench.json -out REPORT_obs.md BENCH_harness.json

# Distributed-transport smoke: a 16-node election where every node is its
# own OS process over localhost TCP, plus the in-memory replay of the same
# seed. The run fails unless both elect the same leader in the same rounds
# with the same CONGEST charge; DIST_demo.json correlates wall-clock per
# distributed round with the simulated round count. CI's bench-smoke job
# runs this and archives the artifact.
dist-demo:
	$(GO) run ./cmd/ledist -proto floodmax -graph cycle -n 16 -seed 1 -out DIST_demo.json

# The regression-gate sweep: every artifact cell (Table 1 + the X4
# knowledge ablation + the fault-injection resilience curves) at the
# promoted -quick defaults, written as a BENCH_harness.json artifact
# (harness.ArtifactSchema). Deterministic for a fixed -seed regardless of
# worker count, so the same command regenerates the same cells on any
# machine. Telemetry is on — phase spans as a Chrome trace, a CPU
# profile — because it is a wall-clock side channel that never enters the
# artifact (go test ./cmd/lebench compares the files), so the one sweep CI
# runs also says where its time went.
bench-artifact:
	$(GO) run ./cmd/lebench -exp sweeps -quick \
		-trace-out TRACE_lebench.json \
		-cpuprofile CPU_lebench.pprof -json BENCH_harness.json

# Diff the freshly-swept artifact against the committed baseline and fail
# on any cell that changed in any field, or was added or removed: the sweep
# is a pure function of its plan and seed, so equal means equal (what CI's
# bench-gate job runs; `make baseline` accepts an intended change).
benchdiff: bench-artifact
	$(GO) run ./cmd/benchdiff -base testdata/BENCH_baseline.json -head BENCH_harness.json

# Render the paper-style reproduction report from a fresh gate sweep
# (see README "lereport"). REPORT.md is a local artifact; the
# committed reference render lives at testdata/REPORT_baseline.md.
report: bench-artifact
	$(GO) run ./cmd/lereport -out REPORT.md BENCH_harness.json

# Refresh the committed baseline after an intentional perf/complexity
# change (see README "benchdiff"); commit both files. The
# report render is regenerated alongside so the golden tests stay in sync.
baseline:
	$(GO) run ./cmd/lebench -exp sweeps -quick -json testdata/BENCH_baseline.json
	$(GO) run ./cmd/lereport -title "anonlead reproduction report — baseline" \
		-out testdata/REPORT_baseline.md testdata/BENCH_baseline.json

# Code size: non-blank lines of non-test Go per package directory, then the
# total outside bench/ — the number the ROADMAP's design aim (every layer
# justifies itself, or goes) and CHANGES.md quote — and last the non-blank
# lines of *_test.go outside bench/.
loc:
	@total=0; tests=0; for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(cat $$(ls $$d/*.go | grep -v _test.go) | grep -c '[^[:space:]]'); \
		printf '%6d %s\n' $$n .$${d#$(CURDIR)}; \
		case $$d in $(CURDIR)/bench) ;; *) total=$$((total + n)); \
			tests=$$((tests + $$(cat /dev/null $$d/*_test.go 2>/dev/null | grep -c '[^[:space:]]'))) ;; esac; \
	done; printf '%6d total outside bench/\n' $$total; printf '%6d test lines outside bench/\n' $$tests

# Besides vet and gofmt: an arm64 build, because internal/spectral's
# vector kernel is amd64 assembly and the other architectures compile its
# fallback file instead (vet checks the assembly's frame offsets on
# amd64, but a declaration left without a body off amd64 fails only a
# build); and one fence over the deprecated names kept only for bench/,
# until ROADMAP item 3 removes them. Each DEPRECATED entry is an extended
# regexp and then the files outside bench/ that may still spell it (the
# declaration and its test): the scheduler names (every run steps on the
# calling goroutine), the profile-mode names (a network's size picks its
# profile regime), the diff thresholds and per-metric counts (a changed
# leaf is the verdict), the runner's node count (no builder reads it) and
# the profile-cache counters (a sweep shares builds only within itself).
DEPRECATED = \
	'WorkerPool|Actors|WithScheduler options.go options_test.go' \
	'ProfileAuto|ProfileMode profile.go profile_test.go' \
	'trajectory\.Thresholds|\.Improved\b|\.Regressed\b|\.Drifted\b internal/trajectory/trajectory.go internal/trajectory/trajectory_test.go' \
	'\bTrueN\b internal/core/registry.go' \
	'ResetProfileCache|ProfileCacheStats internal/harness/buildcount.go'

lint:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) build ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi
	@fail=0; for fence in $(DEPRECATED); do \
		set -- $$fence; pat=$$1; shift; \
		out=$$(grep -rlE --include='*.go' -e "$$pat" . | grep -v '^./bench/' | \
			grep -vxF $$(printf ' -e ./%s' "$$@")); \
		if [ -n "$$out" ]; then \
			printf 'deprecated names (%s) outside bench/ and %s:\n%s\n' "$$pat" "$$*" "$$out"; fail=1; \
		fi; \
	done; exit $$fail

fmt:
	gofmt -w .

ci: build lint test race bench

clean:
	rm -f BENCH_harness.json BENCH_scaling.json REPORT.md
	rm -f benchdiff_report.json lereport.md
	rm -f BENCH_epochs.json
	rm -f TRACE_lebench.json CPU_lebench.pprof REPORT_obs.md
	rm -f DIST_demo.json
	$(GO) clean -testcache
