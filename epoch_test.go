package anonlead

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestOptsDescriptorAndValidate(t *testing.T) {
	if got, want := (Scenario{}).Descriptor(), ""; got != want {
		t.Fatalf("zero descriptor %q", got)
	}
	if got, want := (Scenario{Epochs: 5}).Descriptor(), "epochs=5,fault=crash"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got, want := (Scenario{Epochs: 3, Carry: true}).Descriptor(), "epochs=3,fault=crash,carry"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if got, want := (Scenario{Epochs: 2, Revoke: true}).Descriptor(), "epochs=2,fault=revoke"; got != want {
		t.Fatalf("descriptor %q, want %q", got, want)
	}
	if err := (Scenario{}).Validate(); err == nil {
		t.Fatal("zero epochs accepted")
	}
	if err := (Scenario{Epochs: 2, Revoke: true, Carry: true}).Validate(); err == nil {
		t.Fatal("carry under revoke accepted")
	}
	if err := (Scenario{Epochs: 2, Carry: true}).Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestOptsValidateTable: over every combination of a boundary epoch count
// and the two flags, Validate accepts exactly at least one epoch without
// carry under revoke, and an accepted scenario always names itself and
// its fault mode.
func TestOptsValidateTable(t *testing.T) {
	for _, epochs := range []int{math.MinInt, -1, 0, 1, 2, math.MaxInt} {
		for _, revoke := range []bool{false, true} {
			for _, carry := range []bool{false, true} {
				sc := Scenario{Epochs: epochs, Revoke: revoke, Carry: carry}
				err := sc.Validate()
				if want := epochs >= 1 && !(revoke && carry); (err == nil) != want {
					t.Fatalf("%+v: Validate %v, want valid=%v", sc, err, want)
				}
				if err == nil && !strings.Contains(sc.Descriptor(), "fault="+sc.Fault()) {
					t.Fatalf("%+v: valid but descriptor %q does not name fault %q", sc, sc.Descriptor(), sc.Fault())
				}
			}
		}
	}
}

// TestRunRejectsInvalid: RunEpochs validates the scenario before running
// anything, answering with Validate's error, and runs a one-epoch scenario.
func TestRunRejectsInvalid(t *testing.T) {
	nw := mustNetwork(t, "complete", 8, 3)
	for sc, names := range map[Scenario]string{
		{}:                                     "at least 1 epoch",
		{Epochs: 2, Revoke: true, Carry: true}: "carry has no effect under revoke",
	} {
		eo, err := nw.RunEpochs(context.Background(), ProtoFloodMax, sc)
		if err == nil || !strings.Contains(err.Error(), names) {
			t.Fatalf("%+v: got %v, want an error naming %q", sc, err, names)
		}
		if len(eo.Epochs) != 0 {
			t.Fatalf("%+v: invalid scenario ran %d epochs", sc, len(eo.Epochs))
		}
	}
	eo, err := nw.RunEpochs(context.Background(), ProtoFloodMax, Scenario{Epochs: 1})
	if err != nil || len(eo.Epochs) != 1 {
		t.Fatalf("one-epoch scenario: %d epochs, %v", len(eo.Epochs), err)
	}
}

// runEpochHistory executes one crash-recover epoch scenario and returns
// its outcome plus the canonical JSON encoding of the whole history.
func runEpochHistory(t *testing.T, sc Scenario) (EpochOutcome, []byte) {
	t.Helper()
	nw := mustNetwork(t, "complete", 8, 3)
	eo, err := nw.RunEpochs(context.Background(), ProtoFloodMax, sc, WithSeed(42))
	if err != nil {
		t.Fatalf("RunEpochs: %v", err)
	}
	raw, err := json.Marshal(eo)
	if err != nil {
		t.Fatal(err)
	}
	return eo, raw
}

// TestEpochChainDeterminism is the PR's acceptance criterion: a 5-epoch
// crash-recover history — five chained elections, each killing the
// elected leader for every later epoch — must be byte-identical when run
// again (orchestrator parity lives in internal/harness's epoch tests).
func TestEpochChainDeterminism(t *testing.T) {
	base, baseRaw := runEpochHistory(t, Scenario{Epochs: 5})

	// The scenario must actually exercise the chain: every epoch elects,
	// each epoch's leader is fresh (its predecessors are dead), and seeds
	// genuinely change across epochs.
	if base.Elected != 5 || len(base.Dead) != 4 {
		t.Fatalf("history did not crash-recover 5 times: %+v", base)
	}
	seen := map[int]bool{}
	seeds := map[uint64]bool{}
	for _, r := range base.Epochs {
		if !r.Elected {
			t.Fatalf("epoch %d failed to elect: %+v", r.Epoch, r)
		}
		if seen[r.Leader] {
			t.Fatalf("epoch %d re-elected dead leader %d", r.Epoch, r.Leader)
		}
		seen[r.Leader] = true
		seeds[r.Seed] = true
		if r.Epoch > 0 && r.Crashed != r.Epoch {
			t.Fatalf("epoch %d saw %d crashes, want %d dead ex-leaders", r.Epoch, r.Crashed, r.Epoch)
		}
	}
	if len(seeds) != 5 {
		t.Fatalf("epoch seeds did not chain: %d distinct over 5 epochs", len(seeds))
	}
	if base.MeanRecover <= 0 {
		t.Fatalf("no recovery time measured: %+v", base)
	}

	_, again := runEpochHistory(t, Scenario{Epochs: 5})
	if string(again) != string(baseRaw) {
		t.Error("re-running the same scenario produced a different history")
	}
}

// TestEpochRevokeKeepsEveryoneAlive: revoke mode chains re-elections
// without killing anyone — no dead set, no crashes, and with the seed
// chain intact the epochs still differ.
func TestEpochRevokeKeepsEveryoneAlive(t *testing.T) {
	eo, _ := runEpochHistory(t, Scenario{Epochs: 5, Revoke: true})
	if len(eo.Dead) != 0 {
		t.Fatalf("revoke mode killed %v", eo.Dead)
	}
	if eo.Elected != 5 {
		t.Fatalf("elected %d/5 epochs: %+v", eo.Elected, eo)
	}
	for _, r := range eo.Epochs {
		if r.Crashed != 0 {
			t.Fatalf("epoch %d crashed %d nodes under revoke", r.Epoch, r.Crashed)
		}
	}
	if eo.Epochs[0].Seed == eo.Epochs[1].Seed {
		t.Fatal("revoke epochs did not chain seeds")
	}
}

// TestEpochCarryChangesReElections: with knowledge carry the re-elections
// are told the surviving node count, so a presumed-n-sensitive protocol
// (ire) must diverge from the carry-less baseline after the first death.
func TestEpochCarryChangesReElections(t *testing.T) {
	run := func(carry bool) EpochOutcome {
		nw := mustNetwork(t, "complete", 8, 3)
		eo, err := nw.RunEpochs(context.Background(), ProtoIRE,
			Scenario{Epochs: 3, Carry: carry}, WithSeed(9))
		if err != nil {
			t.Fatalf("carry=%v: %v", carry, err)
		}
		return eo
	}
	plain, carried := run(false), run(true)
	if plain.Epochs[0] != carried.Epochs[0] {
		t.Fatalf("epoch 0 ran before any death; carry must not touch it:\n%+v\nvs\n%+v",
			plain.Epochs[0], carried.Epochs[0])
	}
	diverged := false
	for e := 1; e < len(plain.Epochs) && e < len(carried.Epochs); e++ {
		if plain.Epochs[e].Messages != carried.Epochs[e].Messages ||
			plain.Epochs[e].Rounds != carried.Epochs[e].Rounds {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("knowledge carry changed nothing about the re-elections")
	}
}

// TestEpochCarriesItsRunsMetrics: an epoch records its election's whole
// cost accounting, so under a loss adversary epoch 0 (which runs on the
// caller's seed and options) reads exactly what a plain Run does,
// dropped packets included; and the scenario's Metrics is the epochs'
// sum: counters add, maxima take the max, and Crashed is the last
// epoch's count of dead leaders, who are exactly Dead: the last epoch's
// leader, whom no later epoch crash-stops, is not on it.
func TestEpochCarriesItsRunsMetrics(t *testing.T) {
	nw := mustNetwork(t, "expander", 32, 2)
	opts := []Option{WithSeed(7), WithAdversary(AdversarySpec{Loss: 0.1})}
	eo, err := nw.RunEpochs(context.Background(), ProtoFloodMax, Scenario{Epochs: 3}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	out, err := nw.Run(context.Background(), ProtoFloodMax, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if got := eo.Epochs[0].Metrics; got != out.Metrics || got.Dropped == 0 {
		t.Fatalf("epoch 0 metrics %+v, want a plain run's %+v with packets dropped", got, out.Metrics)
	}

	var want Metrics
	for _, r := range eo.Epochs {
		want.Rounds += r.Rounds
		want.ChargedRounds += r.ChargedRounds
		want.Messages += r.Messages
		want.Bits += r.Bits
		want.Dropped += r.Dropped
		want.Delayed += r.Delayed
		want.CongestBits = max(want.CongestBits, r.CongestBits)
		want.MaxLinkSlots = max(want.MaxLinkSlots, r.MaxLinkSlots)
		want.MaxChannels = max(want.MaxChannels, r.MaxChannels)
	}
	want.Crashed = eo.Epochs[2].Crashed
	if eo.Metrics != want || want.Crashed != 2 {
		t.Fatalf("scenario metrics %+v, want the epochs' sum %+v with two dead leaders", eo.Metrics, want)
	}
	if len(eo.Dead) != eo.Crashed {
		t.Fatalf("dead %v, want the %d ex-leaders the last epoch ran crashed", eo.Dead, eo.Crashed)
	}
}

// TestEpochFailedEpochsAreDataNotErrors: a scenario whose later epochs
// cannot elect (everyone dead after the caller's adversary crashes the
// survivors) still returns the full history with the failures recorded.
func TestEpochFailedEpochsAreDataNotErrors(t *testing.T) {
	nw := mustNetwork(t, "complete", 4, 1)
	// Crash every node at round 0 from epoch 1 on: nobody left to elect.
	sched := map[int]int{0: 0, 1: 0, 2: 0, 3: 0}
	eo, err := nw.RunEpochs(context.Background(), ProtoFloodMax, Scenario{Epochs: 3},
		WithSeed(5), WithAdversary(AdversarySpec{CrashSchedule: sched}))
	if err != nil {
		t.Fatalf("dead-network epochs should be recorded, not returned: %v", err)
	}
	if len(eo.Epochs) != 3 || eo.Elected != 0 {
		t.Fatalf("want 3 recorded failures, got %+v", eo)
	}
}

// TestEpochsRejectTransportCrashMode: crash-mode scenarios inject dead
// leaders through the simulated adversary, which transports reject.
func TestEpochsRejectTransportCrashMode(t *testing.T) {
	nw := mustNetwork(t, "cycle", 4, 0)
	if _, err := nw.RunEpochs(context.Background(), ProtoFloodMax,
		Scenario{Epochs: 2}, WithTransport(TransportChan)); err == nil {
		t.Fatal("crash-mode epochs over a transport should be rejected")
	}
}

// TestEpochContextCancellation: cancellation aborts the scenario and
// returns the partial history alongside the error.
func TestEpochContextCancellation(t *testing.T) {
	nw := mustNetwork(t, "complete", 8, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eo, err := nw.RunEpochs(ctx, ProtoFloodMax, Scenario{Epochs: 5}, WithSeed(1))
	if err == nil {
		t.Fatal("cancelled scenario returned no error")
	}
	if len(eo.Epochs) != 1 {
		t.Fatalf("cancelled scenario recorded %d epochs, want the aborted first", len(eo.Epochs))
	}
}
