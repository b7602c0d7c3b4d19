// Quickstart: elect a leader in an anonymous network with known size.
//
// Builds a 256-node expander (6-regular random graph), runs the paper's
// Irrevocable Leader Election protocol (cautious broadcast + random-walk
// probes + convergecast) through the unified Run surface, and prints the
// winner with the exact CONGEST cost accounting.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"anonlead"
)

func main() {
	// Every election protocol is a named registry entry behind one API.
	fmt.Print("registered protocols:")
	for _, name := range anonlead.Protocols() {
		fmt.Printf(" %s", name)
	}
	fmt.Println()

	nw, err := anonlead.NewNetwork("expander", 256, 1)
	if err != nil {
		log.Fatal(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: n=%d m=%d diameter=%d tmix=%d phi=%.3f\n",
		prof.N, prof.M, prof.Diameter, prof.MixingTime, prof.Conductance)

	out, err := nw.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(42))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("leaders elected: %v (unique=%t)\n", out.Leaders, out.Unique)
	fmt.Printf("cost: %d messages, %d bits, %d rounds (%d CONGEST-charged)\n",
		out.Messages, out.Bits, out.Rounds, out.ChargedRounds)

	// Elections are deterministic in the seed and independent across
	// seeds; rerun a few to see the high-probability guarantee at work.
	unique := 0
	const trials = 10
	for seed := uint64(100); seed < 100+trials; seed++ {
		r, err := nw.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(seed))
		if err != nil {
			log.Fatal(err)
		}
		if r.Unique {
			unique++
		}
	}
	fmt.Printf("unique-leader rate over %d seeds: %d/%d\n", trials, unique, trials)
}
