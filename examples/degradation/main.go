// Degradation curves: leader election under deterministic fault injection,
// entirely through the public API.
//
// This charts the same resilience curves as `lebench -exp faults`: a
// protocol on a fixed topology, swept over adversary severities, each cell
// anchored at the fault-free point (a zero AdversarySpec is byte-identical
// to no adversary at all). Every fault decision is a pure function of the
// run seed, so the whole chart is reproducible to the byte — and the
// Dropped/Delayed/Crashed counters land directly on the public Outcome.
//
// Three ladders: message loss vs IRE, crash-stop vs FloodMax, delivery
// jitter vs walk-and-notify. The last run streams per-round metrics
// through WithObserver to show live progress plumbing.
//
//	go run ./examples/degradation
package main

import (
	"context"
	"fmt"
	"log"

	"anonlead"
)

const trials = 8

func main() {
	ctx := context.Background()
	nw, err := anonlead.NewNetwork("expander", 64, 21)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := nw.Profile(anonlead.ProfileAuto)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expander: n=%d m=%d tmix=%d phi=%.3f\n\n", prof.N, prof.M, prof.MixingTime, prof.Conductance)

	fmt.Println("F1: message loss vs IRE")
	curve(ctx, nw, anonlead.ProtoIRE, []anonlead.AdversarySpec{
		{}, {Loss: 0.05}, {Loss: 0.1}, {Loss: 0.2},
	})

	fmt.Println("F2: crash-stop vs FloodMax")
	curve(ctx, nw, anonlead.ProtoFloodMax, []anonlead.AdversarySpec{
		{}, {CrashFraction: 0.1, CrashBy: 3}, {CrashFraction: 0.25, CrashBy: 3}, {CrashFraction: 0.5, CrashBy: 3},
	})

	fmt.Println("F3: delivery jitter vs walk-and-notify")
	curve(ctx, nw, anonlead.ProtoWalkNotify, []anonlead.AdversarySpec{
		{}, {DelayProb: 0.25, MaxDelay: 2}, {DelayProb: 0.5, MaxDelay: 4},
	})

	// Observer: stream the halting front of one faulted election.
	fmt.Println("observer: IRE under 10% loss, every 32 rounds")
	_, err = nw.Run(ctx, anonlead.ProtoIRE,
		anonlead.WithSeed(1),
		anonlead.WithAdversary(anonlead.AdversarySpec{Loss: 0.1}),
		anonlead.WithObserver(func(ri anonlead.RoundInfo) {
			if ri.Round%32 == 0 {
				fmt.Printf("  round %-4d halted=%-3d msgs=%-7d dropped=%d\n",
					ri.Round, ri.Halted, ri.Metrics.Messages, ri.Metrics.Dropped)
			}
		}))
	if err != nil {
		log.Fatal(err)
	}
}

// curve runs one severity ladder and prints the degradation relative to
// the fault-free anchor (the first, zero spec).
func curve(ctx context.Context, nw *anonlead.Network, proto string, ladder []anonlead.AdversarySpec) {
	fmt.Printf("  %-22s %9s %10s %9s %9s %9s\n", "adversary", "success", "msgs", "dropped", "delayed", "crashed")
	for _, spec := range ladder {
		var wins int
		var msgs, dropped, delayed, crashed float64
		for t := 0; t < trials; t++ {
			out, err := nw.Run(ctx, proto,
				anonlead.WithSeed(100+uint64(t)), anonlead.WithAdversary(spec))
			if err != nil {
				log.Fatal(err)
			}
			if out.Unique {
				wins++
			}
			msgs += float64(out.Messages)
			dropped += float64(out.Dropped)
			delayed += float64(out.Delayed)
			crashed += float64(out.Crashed)
		}
		name := spec.Descriptor()
		if name == "" {
			name = "(fault-free)"
		}
		fmt.Printf("  %-22s %6d/%d %10.0f %9.1f %9.1f %9.1f\n",
			name, wins, trials, msgs/trials, dropped/trials, delayed/trials, crashed/trials)
	}
	fmt.Println()
}
