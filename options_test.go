package anonlead

import (
	"context"
	"reflect"
	"runtime"
	"testing"
)

// TestWithSchedulerIsInert: WithScheduler changes nothing. Each of its
// three values gives the default run's Outcome, and no round runs beside
// more goroutines than were alive just before Run, so no value steps nodes
// on goroutines of its own.
func TestWithSchedulerIsInert(t *testing.T) {
	nw := mustNetwork(t, "expander", 64, 1)
	run := func(label string, opts ...Option) Outcome {
		t.Helper()
		base := runtime.NumGoroutine()
		peak := 0
		opts = append(opts, WithSeed(4), WithObserver(func(RoundInfo) {
			peak = max(peak, runtime.NumGoroutine())
		}))
		out, err := nw.Run(context.Background(), ProtoIRE, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if peak > base {
			t.Fatalf("%s: %d goroutines alive in a round, %d before Run", label, peak, base)
		}
		return out
	}
	want := run("default")
	for _, s := range []Scheduler{Sequential, WorkerPool, Actors} {
		if got := run(s.String(), WithScheduler(s)); !reflect.DeepEqual(got, want) {
			t.Fatalf("WithScheduler(%v) changed the outcome:\n%+v\nwant %+v", s, got, want)
		}
	}
}
