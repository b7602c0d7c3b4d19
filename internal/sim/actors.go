package sim

import (
	"math/bits"
	"sync"
)

// Scheduler selects how node steps are executed each round. All schedulers
// produce bit-identical results: randomness is pre-split per node and
// routing is always performed in node order, so the choice is purely a
// throughput knob. The root package aliases this type as
// anonlead.Scheduler.
type Scheduler int

const (
	// Sequential runs node steps in index order on the calling goroutine.
	Sequential Scheduler = iota
	// WorkerPool fans node steps out over a bounded goroutine pool that
	// is spawned per round.
	WorkerPool
	// Actors runs every node as a persistent goroutine for the lifetime
	// of the network — message-passing all the way down. Call Close when
	// done with a network that has not globally halted (the goroutines
	// park on their command channels otherwise).
	Actors
)

// String names the scheduler ("sequential", "workerpool", "actors").
func (s Scheduler) String() string {
	switch s {
	case WorkerPool:
		return "workerpool"
	case Actors:
		return "actors"
	default:
		return "sequential"
	}
}

// actorPool manages the persistent per-node goroutines of the Actors
// scheduler.
type actorPool struct {
	cmds   []chan int // round number; closed on shutdown
	wg     sync.WaitGroup
	done   chan int // node indices reporting step completion
	closed bool
}

// startActors spawns one goroutine per node. Each goroutine parks on its
// command channel, executes its node's step for the announced round, and
// reports completion. The coordinator owns all shared state between
// commands, so no locking is needed beyond the channel handoffs.
func (nw *Network) startActors() {
	n := len(nw.machines)
	p := &actorPool{
		cmds: make([]chan int, n),
		done: make(chan int, n),
	}
	for v := 0; v < n; v++ {
		p.cmds[v] = make(chan int, 1)
		p.wg.Add(1)
		go func(v int) {
			defer p.wg.Done()
			for round := range p.cmds[v] {
				nw.stepNode(v, round)
				p.done <- v
			}
		}(v)
	}
	nw.actors = p
}

// deliverActors dispatches one round to the goroutines of the visit set's
// nodes and waits for all of them.
func (nw *Network) deliverActors(round int) {
	if nw.actors == nil {
		nw.startActors()
	}
	busy := 0
	for i, word := range nw.visits.visit {
		for ; word != 0; word &= word - 1 {
			nw.actors.cmds[i<<6|bits.TrailingZeros64(word)] <- round
			busy++
		}
	}
	for ; busy > 0; busy-- {
		<-nw.actors.done
	}
}

// Close releases the persistent goroutines of the Actors scheduler. It is
// a no-op for other schedulers and safe to call multiple times. Networks
// whose machines all halt are closed automatically by Step.
func (nw *Network) Close() {
	if nw.actors == nil || nw.actors.closed {
		return
	}
	nw.actors.closed = true
	for _, c := range nw.actors.cmds {
		close(c)
	}
	nw.actors.wg.Wait()
	nw.actors = nil
}
