package sim

import (
	"runtime"
	"testing"
	"time"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

// runGossipScheduler mirrors runGossip with an explicit scheduler choice.
func runGossipScheduler(s Scheduler) ([]uint64, Metrics) {
	g := graph.Torus(4, 5)
	nw := New(Config{Graph: g, Seed: 7, Scheduler: s},
		func(node, degree int, r *rng.RNG) Machine { return &gossiper{} })
	defer nw.Close()
	nw.Run(50)
	vals := make([]uint64, g.N())
	for v := 0; v < g.N(); v++ {
		vals[v] = nw.Machine(v).(*gossiper).val
	}
	return vals, nw.Metrics()
}

func TestActorsMatchSequential(t *testing.T) {
	seqVals, seqMet := runGossipScheduler(Sequential)
	actVals, actMet := runGossipScheduler(Actors)
	for i := range seqVals {
		if seqVals[i] != actVals[i] {
			t.Fatalf("node %d differs: %d vs %d", i, seqVals[i], actVals[i])
		}
	}
	if seqMet != actMet {
		t.Fatalf("metrics differ:\nseq %+v\nact %+v", seqMet, actMet)
	}
}

func TestActorsAutoCloseOnGlobalHalt(t *testing.T) {
	g := graph.Cycle(6)
	nw := New(Config{Graph: g, Seed: 1, Scheduler: Actors},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: 2, sendBits: 4}
		})
	nw.Run(20)
	if !nw.AllHalted() {
		t.Fatal("network did not halt")
	}
	if nw.actors != nil {
		t.Fatal("actor pool not released after global halt")
	}
	// Close after auto-close must be a no-op.
	nw.Close()
}

func TestActorsExplicitClose(t *testing.T) {
	g := graph.Cycle(6)
	nw := New(Config{Graph: g, Seed: 1, Scheduler: Actors},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: 1 << 30, sendBits: 4} // never halts
		})
	nw.Run(10)
	nw.Close()
	nw.Close() // idempotent
}

func TestCloseNoOpForOtherSchedulers(t *testing.T) {
	g := graph.Cycle(4)
	nw := New(Config{Graph: g, Seed: 1},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: 2, sendBits: 4}
		})
	nw.Close()
	nw.Run(10)
}

// waitGoroutinesBelow polls until the process goroutine count drops to at
// most limit (goroutine exit is asynchronous after wg.Wait in the spawner's
// frame has returned).
func waitGoroutinesBelow(t *testing.T, limit int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= limit {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still alive, want <= %d", runtime.NumGoroutine(), limit)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestActorsCloseReleasesGoroutinesMidRun: Close on a network that has NOT
// globally halted must release every per-node goroutine, and the closed
// network must remain restartable (a further Step respawns the pool).
func TestActorsCloseReleasesGoroutinesMidRun(t *testing.T) {
	base := runtime.NumGoroutine()
	g := graph.Complete(16)
	nw := New(Config{Graph: g, Seed: 2, Scheduler: Actors},
		func(node, degree int, r *rng.RNG) Machine {
			return &recorder{stopRound: 1 << 30, sendBits: 4} // never halts
		})
	nw.Run(5)
	if nw.AllHalted() {
		t.Fatal("test wants a non-halted network")
	}
	nw.Close()
	waitGoroutinesBelow(t, base+2)
	// The network is still steppable: the pool respawns on demand and the
	// run continues deterministically.
	if !nw.Step() {
		t.Fatal("closed-but-live network refused to step")
	}
	nw.Close()
	waitGoroutinesBelow(t, base+2)
}

// TestActorsHaltedNodeParking: nodes that halt mid-run stop stepping while
// the rest of the network keeps executing on the persistent goroutines,
// and the mixed run matches the sequential scheduler exactly.
func TestActorsHaltedNodeParking(t *testing.T) {
	g := graph.Torus(4, 5)
	factory := func(node, degree int, r *rng.RNG) Machine {
		stop := 1 << 30
		if node%2 == 0 {
			stop = 3 // half the nodes halt early
		}
		return &recorder{stopRound: stop, sendBits: 4}
	}
	nw := New(Config{Graph: g, Seed: 6, Scheduler: Actors}, factory)
	defer nw.Close()
	nw.Run(12)
	ref := New(Config{Graph: g, Seed: 6}, factory)
	ref.Run(12)
	for v := 0; v < g.N(); v++ {
		got := nw.Machine(v).(*recorder)
		want := ref.Machine(v).(*recorder)
		if got.rounds != want.rounds {
			t.Fatalf("node %d stepped %d rounds under actors, %d sequential", v, got.rounds, want.rounds)
		}
		if v%2 == 0 && got.rounds > 5 {
			t.Fatalf("halted node %d kept stepping (%d rounds)", v, got.rounds)
		}
	}
	if nw.Metrics() != ref.Metrics() {
		t.Fatalf("metrics diverged:\nactors %+v\nseq    %+v", nw.Metrics(), ref.Metrics())
	}
}

// TestStepCountsMatchSequential: WorkerPool and Actors step every node
// exactly as often as the sequential loop does. The -race pass runs this
// test, so it also covers the concurrent step paths.
func TestStepCountsMatchSequential(t *testing.T) {
	g := graph.Torus(4, 5)
	run := func(s Scheduler) []int {
		nw := New(Config{Graph: g, Seed: 9, Scheduler: s},
			func(node, degree int, r *rng.RNG) Machine { return &gossiper{} })
		defer nw.Close()
		nw.Run(25)
		steps := make([]int, g.N())
		for v := range steps {
			steps[v] = nw.Machine(v).(*gossiper).rounds
		}
		return steps
	}
	seq := run(Sequential)
	if seq[0] != 25 {
		t.Fatalf("sequential node 0 stepped %d rounds, want 25", seq[0])
	}
	for _, s := range []Scheduler{WorkerPool, Actors} {
		got := run(s)
		for v := range seq {
			if got[v] != seq[v] {
				t.Fatalf("scheduler %v: node %d stepped %d rounds, sequential %d", s, v, got[v], seq[v])
			}
		}
	}
}

func TestActorsLongRun(t *testing.T) {
	// A longer run shakes out ordering races between command dispatch and
	// completion collection.
	g := graph.Complete(12)
	nw := New(Config{Graph: g, Seed: 3, Scheduler: Actors},
		func(node, degree int, r *rng.RNG) Machine { return &gossiper{} })
	defer nw.Close()
	nw.Run(40)
	ref := New(Config{Graph: g, Seed: 3},
		func(node, degree int, r *rng.RNG) Machine { return &gossiper{} })
	ref.Run(40)
	for v := 0; v < g.N(); v++ {
		if nw.Machine(v).(*gossiper).val != ref.Machine(v).(*gossiper).val {
			t.Fatalf("node %d diverged", v)
		}
	}
}
