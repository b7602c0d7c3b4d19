package anonlead

import (
	"anonlead/internal/adversary"
	"anonlead/internal/sim"
)

// Scheduler selects how node steps are executed each round. All schedulers
// produce bit-identical results: randomness is pre-split per node and
// routing is always performed in node order, so the choice is purely a
// throughput knob.
type Scheduler = sim.Scheduler

const (
	// Sequential runs node steps in index order on the calling goroutine.
	Sequential = sim.Sequential
	// WorkerPool fans node steps out over a bounded goroutine pool.
	WorkerPool = sim.WorkerPool
	// Actors runs every node as a persistent goroutine for the lifetime
	// of the run — message-passing all the way down.
	Actors = sim.Actors
)

// AdversarySpec declares a deterministic fault-injection adversary (message
// loss, crash-stop, link churn, delivery jitter, traffic-adaptive crashes)
// for WithAdversary. It is the very type the fault-injection sweeps record
// in their bench artifacts, so a spec and its canonical Descriptor mean the
// same thing on both surfaces. The zero value means "no adversary".
type AdversarySpec = adversary.Spec
