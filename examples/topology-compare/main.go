// Topology compare: where the paper's protocol wins and loses.
//
// Runs the paper's Irrevocable LE (Õ(√(n·tmix/Φ)) messages), the
// Gilbert-class walk baseline (Õ(tmix·√n)), and the Kutten-class FloodMax
// baseline (Θ(m) messages, Θ(D) rounds) on an expander, a cycle, and the
// diameter-2 clique-of-cliques, and prints the message/time comparison
// that Table 1 formalizes: flooding is cheap on time but pays m messages;
// the walk protocols win on messages on well-connected graphs; our
// protocol's √(tmix·Φ) advantage over the Gilbert class is largest on
// poorly conducting graphs like the cycle.
//
// The comparison is written entirely against the public API: every
// protocol is a registry name handed to the same Network.Run call, so
// swapping protocols is a string, not a method — and each network's
// structural profile (diameter, mixing time, conductance) comes from
// Network.Profile, the same exact/estimate regime surface the protocols'
// defaults are filled from. (For large fanned-out sweeps with
// distribution artifacts, see cmd/lebench; for n beyond a few hundred,
// anonlead.ProfileEstimate keeps profiling cheap.)
//
//	go run ./examples/topology-compare
package main

import (
	"context"
	"fmt"
	"log"

	"anonlead"
)

func main() {
	families := []struct {
		name  string
		sizes []int
	}{
		{"expander", []int{64, 128}},
		{"cycle", []int{32, 64}},
		{"diam2", []int{33, 65}},
	}
	protos := []string{anonlead.ProtoIRE, anonlead.ProtoWalkNotify, anonlead.ProtoFloodMax}
	const trials = 5

	ctx := context.Background()
	for _, fam := range families {
		fmt.Printf("=== %s ===\n", fam.name)
		fmt.Printf("%-12s %6s %12s %8s %8s %8s\n",
			"protocol", "n", "msgs", "rounds", "charged", "success")
		for _, n := range fam.sizes {
			nw, err := anonlead.NewNetwork(fam.name, n, 11)
			if err != nil {
				log.Fatal(err)
			}
			// The structural quantities the protocols are parameterized
			// by, from the public profile surface (auto: exact here,
			// estimate past n=256).
			prof, err := nw.Profile(anonlead.ProfileAuto)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  n=%d: m=%d D=%d tmix=%d phi=%.3f\n",
				prof.N, prof.M, prof.Diameter, prof.MixingTime, prof.Conductance)
			for _, proto := range protos {
				var msgs, rounds, charged, wins float64
				for t := 0; t < trials; t++ {
					out, err := nw.Run(ctx, proto, anonlead.WithSeed(11+uint64(t)))
					if err != nil {
						log.Fatal(err)
					}
					msgs += float64(out.Messages)
					rounds += float64(out.Rounds)
					charged += float64(out.ChargedRounds)
					if out.Unique {
						wins++
					}
				}
				fmt.Printf("%-12s %6d %12.1f %8.1f %8.1f %5.0f/%d\n",
					proto, n, msgs/trials, rounds/trials, charged/trials, wins, trials)
			}
		}
		fmt.Println()
	}
}
