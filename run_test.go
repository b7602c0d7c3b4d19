package anonlead

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"anonlead/internal/adversary"
	"anonlead/internal/core"
	"anonlead/internal/sim"
)

func TestProtocolsRegistry(t *testing.T) {
	want := []string{ProtoIRE, ProtoExplicit, ProtoRevocable, ProtoFloodMax, ProtoAllFlood, ProtoWalkNotify}
	if got := Protocols(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Protocols() = %v, want %v", got, want)
	}
	nw, err := NewNetwork("complete", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Run(context.Background(), "nosuch"); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	// The legacy alias resolves to the canonical name.
	out, err := nw.Run(context.Background(), "flood", WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if out.Protocol != ProtoFloodMax {
		t.Fatalf("alias resolved to %q, want %q", out.Protocol, ProtoFloodMax)
	}
}

// TestRunFaultInjectionMatchesInternal pins the public fault-injected Run
// path byte-for-byte against an independently assembled internal run: same
// graph, same internal/adversary spec built with the canonical seed
// derivation, same factory driven directly on the simulator.
func TestRunFaultInjectionMatchesInternal(t *testing.T) {
	nw, err := NewNetwork("expander", 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	spec := AdversarySpec{Loss: 0.15, CrashFraction: 0.2, CrashBy: 4}
	const seed = 11

	out, err := nw.Run(context.Background(), ProtoFloodMax, WithSeed(seed), WithAdversary(spec))
	if err != nil {
		t.Fatal(err)
	}

	// Independent reference path (the pre-registry harness code shape).
	ispec := adversary.Spec{Loss: 0.15, CrashFraction: 0.2, CrashBy: 4}
	adv, err := ispec.Build(nw.g, adversary.DeriveRunSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := core.Lookup(ProtoFloodMax)
	runner, err := entry.Build(core.ProtoConfig{
		N: nw.N(), Diam: prof.Diameter,
		MaxDelay: adv.MaxDelay(), Faulted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := sim.New(sim.Config{Graph: nw.g, Seed: seed, Adversary: adv}, runner.Factory)
	defer ref.Close()
	rounds := ref.Run(runner.Budget)
	if !ref.AllHalted() {
		t.Fatal("reference run did not halt")
	}
	m := ref.Metrics()
	if out.Rounds != rounds || out.Messages != m.Messages || out.Bits != m.Bits ||
		out.Dropped != m.Dropped || out.Crashed != m.Crashes ||
		out.ChargedRounds != m.ChargedRounds {
		t.Fatalf("public fault-injected run diverged from internal reference:\npublic  %+v\nrounds=%d metrics=%+v", out.Metrics, rounds, m)
	}
	if co := runner.Collect(ref); !reflect.DeepEqual(out.Outcome, co) {
		t.Fatalf("outcomes diverged: public %+v, internal %+v", out.Outcome, co)
	}
}

// TestZeroAdversaryByteIdentical: a zero-rate adversary spec builds to no
// adversary at all, so the outcome is byte-identical to a plain run.
func TestZeroAdversaryByteIdentical(t *testing.T) {
	nw, err := NewNetwork("expander", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := nw.Run(ctx, ProtoIRE, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	zero, err := nw.Run(ctx, ProtoIRE, WithSeed(5), WithAdversary(AdversarySpec{}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, zero) {
		t.Fatalf("zero adversary perturbed the run:\n%+v\n%+v", plain.Metrics, zero.Metrics)
	}
}

// TestRunObserver checks that the observer sees every executed round with
// monotone cumulative metrics ending at the final accounting.
func TestRunObserver(t *testing.T) {
	nw, err := NewNetwork("complete", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	var rounds []int
	var last Metrics
	out, err := nw.Run(context.Background(), ProtoFloodMax, WithSeed(2),
		WithObserver(func(ri RoundInfo) {
			rounds = append(rounds, ri.Round)
			if ri.Metrics.Messages < last.Messages {
				t.Errorf("messages regressed at round %d", ri.Round)
			}
			last = ri.Metrics
		}))
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != out.Rounds {
		t.Fatalf("observed %d rounds, ran %d", len(rounds), out.Rounds)
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("round sequence broken at %d: %v", i, rounds)
		}
	}
	if last != out.Metrics {
		t.Fatalf("final observation %+v != outcome metrics %+v", last, out.Metrics)
	}
}

// TestRunContextCancel: a cancelled context stops the run between rounds
// with the context error surfaced and partial accounting preserved.
func TestRunContextCancel(t *testing.T) {
	nw, err := NewNetwork("complete", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := nw.Run(ctx, ProtoIRE, WithSeed(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if out.Rounds != 0 {
		t.Fatalf("pre-cancelled run executed %d rounds", out.Rounds)
	}

	// Cancel mid-run via the observer's side channel.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	fired := 0
	out2, err := nw.Run(ctx2, ProtoIRE, WithSeed(1), WithObserver(func(RoundInfo) {
		fired++
		if fired == 3 {
			cancel2()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled mid-run, got %v", err)
	}
	if out2.Rounds != 3 {
		t.Fatalf("expected stop after 3 rounds, got %d", out2.Rounds)
	}
	if out2.Messages == 0 {
		t.Fatal("partial outcome lost its accounting")
	}
}

// TestWithPresumedN: misreporting the size changes the protocol's work on
// the same topology (the knowledge ablation as a first-class option).
func TestWithPresumedN(t *testing.T) {
	nw, err := NewNetwork("expander", 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	truth, err := nw.Run(ctx, ProtoIRE, WithSeed(6))
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := nw.Run(ctx, ProtoIRE, WithSeed(6), WithPresumedN(128))
	if err != nil {
		t.Fatal(err)
	}
	if truth.Rounds == skewed.Rounds && truth.Messages == skewed.Messages {
		t.Fatal("presumed size had no observable effect")
	}
}

// TestCrashScheduleOutOfRangeIsAnError: a scheduled crash naming a node the
// network does not have used to be dropped while the descriptor still
// counted it (crashsched=k claiming crashes that never happen); the build,
// which knows n, now refuses it by name.
func TestCrashScheduleOutOfRangeIsAnError(t *testing.T) {
	nw := mustNetwork(t, "cycle", 8, 1)
	spec := AdversarySpec{CrashSchedule: map[int]int{3: 2, 8: 2}}
	if got := spec.Descriptor(); got != "crashsched=2" {
		t.Fatalf("descriptor %q", got)
	}
	_, err := nw.Run(context.Background(), ProtoFloodMax, WithSeed(1), WithAdversary(spec))
	if !errors.Is(err, adversary.ErrCrashNodeOutOfRange) || !strings.Contains(err.Error(), "node 8") {
		t.Fatalf("out-of-range crash schedule: got %v", err)
	}
	spec.CrashSchedule = map[int]int{3: 2, 7: 2}
	out, err := nw.Run(context.Background(), ProtoFloodMax, WithSeed(1), WithAdversary(spec))
	if err != nil || out.Metrics.Crashed != 2 {
		t.Fatalf("in-range schedule: crashed %d, err %v", out.Metrics.Crashed, err)
	}
}

// TestMetricsMirrorParity guards the one remaining mirror pair,
// sim.Metrics -> anonlead.Metrics, against drift: every simulator counter,
// set to a distinct sentinel, must survive metricsFromSim. A counter added
// to sim.Metrics without updating it would silently read as zero in every
// bench artifact.
func TestMetricsMirrorParity(t *testing.T) {
	simT := reflect.TypeOf(sim.Metrics{})
	pubT := reflect.TypeOf(Metrics{})
	if simT.NumField() != pubT.NumField() {
		t.Fatalf("sim.Metrics has %d fields, public Metrics %d — update the mirror",
			simT.NumField(), pubT.NumField())
	}
	var m sim.Metrics
	mv := reflect.ValueOf(&m).Elem()
	for i := 0; i < mv.NumField(); i++ {
		mv.Field(i).SetInt(int64(i + 1)) // distinct nonzero sentinels
	}
	pub := metricsFromSim(m)
	pv := reflect.ValueOf(pub)
	seen := map[int64]bool{}
	for i := 0; i < pv.NumField(); i++ {
		v := pv.Field(i).Int()
		if v == 0 || seen[v] {
			t.Fatalf("public Metrics field %s lost or duplicated its sentinel (%d): %+v",
				pubT.Field(i).Name, v, pub)
		}
		seen[v] = true
	}
}

// TestOutcomeRoundsIsExecutedRounds: Outcome carries each counter once, in
// its embedded Metrics, so out.Rounds must be the number of rounds the
// engine executed (one observer callback each) on every backend and for
// every way a run ends: halted within its budget, out of rounds, and
// cancelled. The out-of-rounds run is revocable's ErrNotStabilized; its
// fixed-budget twin ErrNotHalted takes the same path through Run but no
// registered protocol can produce it — every machine halts on a round
// number its own budget includes.
func TestOutcomeRoundsIsExecutedRounds(t *testing.T) {
	nw := mustNetwork(t, "cycle", 8, 0)
	for _, backend := range []Transport{TransportSim, TransportChan, TransportTCP} {
		for _, tc := range []struct {
			name, protocol string
			opts           []Option
			cancelAfter    int
			wantErr        error
		}{
			{name: "halts", protocol: ProtoFloodMax},
			{name: "out-of-rounds", protocol: ProtoRevocable, opts: []Option{WithProtoConfig(core.ProtoConfig{MaxRounds: 10})}, wantErr: ErrNotStabilized},
			{name: "cancelled", protocol: ProtoFloodMax, cancelAfter: 3, wantErr: context.Canceled},
		} {
			t.Run(backend.String()+"/"+tc.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				executed := 0
				opts := append([]Option{WithSeed(7), WithTransport(backend), WithObserver(func(RoundInfo) {
					if executed++; executed == tc.cancelAfter {
						cancel()
					}
				})}, tc.opts...)
				out, err := nw.Run(ctx, tc.protocol, opts...)
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("error %v, want %v", err, tc.wantErr)
				}
				if executed == 0 || out.Rounds != executed {
					t.Fatalf("out.Rounds %d, engine executed %d rounds", out.Rounds, executed)
				}
				if tc.cancelAfter > 0 && executed != tc.cancelAfter {
					t.Fatalf("cancelled after round %d, engine executed %d", tc.cancelAfter, executed)
				}
			})
		}
	}
}

// TestRevocableNotStabilized: the sentinel error carries partial metrics.
func TestRevocableNotStabilized(t *testing.T) {
	nw, err := NewNetwork("complete", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nw.Run(context.Background(), ProtoRevocable, WithSeed(1), WithProtoConfig(core.ProtoConfig{MaxRounds: 10}))
	if !errors.Is(err, ErrNotStabilized) {
		t.Fatalf("expected ErrNotStabilized, got %v", err)
	}
	if out.Rounds == 0 || out.Messages == 0 {
		t.Fatalf("partial outcome missing accounting: %+v", out.Metrics)
	}
}
