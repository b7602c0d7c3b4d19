package anonlead

import (
	"context"
	"sync"
	"testing"
)

// collectingRecorder is a mutex-guarded TraceRecorder, the shape external
// callers build since the internal trace.Ring is not exported.
type collectingRecorder struct {
	mu     sync.Mutex
	events []TraceEvent
}

func (c *collectingRecorder) Record(e TraceEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectingRecorder) byKind() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int)
	for _, e := range c.events {
		out[e.Kind]++
	}
	return out
}

// TestWithTraceStreamsProtocolEvents pins the public tracing path: an ire
// election run with WithTrace must surface the protocol's candidate and
// leader annotations, identically across schedulers, and tracing must not
// perturb the election itself.
func TestWithTraceStreamsProtocolEvents(t *testing.T) {
	for _, s := range []Scheduler{Sequential, WorkerPool, Actors} {
		nw, err := NewNetwork("expander", 24, 3)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := nw.Run(context.Background(), ProtoIRE, WithSeed(5), WithScheduler(s))
		if err != nil {
			t.Fatalf("scheduler %v untraced: %v", s, err)
		}
		rec := &collectingRecorder{}
		traced, err := nw.Run(context.Background(), ProtoIRE,
			WithSeed(5), WithScheduler(s), WithTrace(rec))
		if err != nil {
			t.Fatalf("scheduler %v traced: %v", s, err)
		}
		if traced.Messages != plain.Messages || traced.Rounds != plain.Rounds {
			t.Fatalf("scheduler %v: tracing perturbed the run: %d/%d msgs, %d/%d rounds",
				s, traced.Messages, plain.Messages, traced.Rounds, plain.Rounds)
		}
		kinds := rec.byKind()
		if kinds["candidate"] == 0 {
			t.Errorf("scheduler %v: no candidate events: %v", s, kinds)
		}
		if kinds["leader"] != 1 {
			t.Errorf("scheduler %v: %d leader events, want 1 (%v)", s, kinds["leader"], kinds)
		}
	}
}

// TestTraceFuncAdapter covers the func-to-recorder adapter.
func TestTraceFuncAdapter(t *testing.T) {
	nw, err := NewNetwork("cycle", 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	n := 0
	_, err = nw.Run(context.Background(), ProtoIRE, WithSeed(2),
		WithTrace(TraceFunc(func(TraceEvent) { mu.Lock(); n++; mu.Unlock() })))
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("TraceFunc recorder saw no events")
	}
}
