package sim

import (
	"context"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// TestObserverStreamsRounds: the observer fires once per executed round,
// in order, with cumulative metrics matching the final accounting.
func TestObserverStreamsRounds(t *testing.T) {
	var rounds, halted []int
	var last Metrics
	nw := New(Config{Graph: graph.Cycle(8), Seed: 1, Observer: func(ri RoundInfo) {
		rounds = append(rounds, ri.Round)
		halted = append(halted, ri.Halted)
		last = ri.Metrics
	}}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: 5, sendBits: 4}
	})
	nw.Run(100)
	if len(rounds) != nw.Metrics().Rounds {
		t.Fatalf("observed %d rounds, executed %d", len(rounds), nw.Metrics().Rounds)
	}
	for i, r := range rounds {
		if r != i {
			t.Fatalf("round order broken: %v", rounds)
		}
	}
	if last != nw.Metrics() {
		t.Fatalf("final observation %+v != metrics %+v", last, nw.Metrics())
	}
	if halted[len(halted)-1] != 8 {
		t.Fatalf("final halted count %d, want 8", halted[len(halted)-1])
	}
}

// TestRunContextCancelled: cancellation between rounds stops the loop and
// reports the context error, leaving metrics consistent.
func TestRunContextCancelled(t *testing.T) {
	g := graph.Cycle(8)
	ctx, cancel := context.WithCancel(context.Background())
	var nw *Network
	nw = New(Config{Graph: g, Seed: 1, Observer: func(ri RoundInfo) {
		if ri.Round == 2 {
			cancel()
		}
	}}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: 50, sendBits: 4}
	})
	executed, err := nw.RunContext(ctx, 100)
	if err != context.Canceled {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	if executed != 3 {
		t.Fatalf("executed %d rounds, want 3 (cancel observed after round 2)", executed)
	}
	if nw.Metrics().Rounds != executed {
		t.Fatalf("metrics rounds %d != executed %d", nw.Metrics().Rounds, executed)
	}

	// An uncancelled context behaves exactly like Run.
	nw2 := New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: 5, sendBits: 4}
	})
	executed2, err := nw2.RunContext(context.Background(), 100)
	if err != nil {
		t.Fatal(err)
	}
	nw3 := New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: 5, sendBits: 4}
	})
	if plain := nw3.Run(100); plain != executed2 {
		t.Fatalf("RunContext executed %d, Run executed %d", executed2, plain)
	}
}

// TestRunUntilContextCancelled mirrors the open-ended loop.
func TestRunUntilContextCancelled(t *testing.T) {
	g := graph.Cycle(8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	nw := New(Config{Graph: g, Seed: 1}, func(node, degree int, r *rng.RNG) Machine {
		return &recorder{stopRound: 50, sendBits: 4}
	})
	executed, err := nw.RunUntilContext(ctx, 100, func(int) bool { return false })
	if err != context.Canceled || executed != 0 {
		t.Fatalf("pre-cancelled RunUntilContext: executed=%d err=%v", executed, err)
	}
}
