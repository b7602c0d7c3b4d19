package anonlead_test

import (
	"context"
	"fmt"

	"anonlead"
)

// Every protocol in the registry runs through the same Run call; the
// outcome carries leaders, uniqueness and the CONGEST cost accounting.
func ExampleNetwork_Run() {
	nw, err := anonlead.NewNetwork("complete", 16, 1)
	if err != nil {
		panic(err)
	}
	out, err := nw.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(3))
	if err != nil {
		panic(err)
	}
	fmt.Println("unique:", out.Unique, "leaders:", len(out.Leaders))
	fmt.Println("positive costs:", out.Messages > 0 && out.Bits > 0 && out.ChargedRounds > 0)
	// Output:
	// unique: true leaders: 1
	// positive costs: true
}

// The explicit protocol adds per-protocol extras to the unified outcome:
// every node learns the leader and gets a parent pointer in a
// leader-rooted BFS spanning tree.
func ExampleNetwork_Run_explicit() {
	nw, err := anonlead.NewNetwork("torus", 25, 1)
	if err != nil {
		panic(err)
	}
	out, err := nw.Run(context.Background(), anonlead.ProtoExplicit, anonlead.WithSeed(100))
	if err != nil {
		panic(err)
	}
	leader := out.Leaders[0]
	fmt.Println("unique:", out.Unique, "all know:", out.AllKnow)
	fmt.Println("leader is tree root:", out.Parents[leader] == -1 && out.Depths[leader] == 0)
	// Output:
	// unique: true all know: true
	// leader is tree root: true
}

// Revocable election works without knowing the network size; the outcome
// carries the network-wide agreed leader certificate.
func ExampleNetwork_Run_revocable() {
	nw, err := anonlead.NewNetwork("complete", 4, 1)
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile(anonlead.ProfileAuto)
	if err != nil {
		panic(err)
	}
	out, err := nw.Run(context.Background(), anonlead.ProtoRevocable,
		anonlead.WithSeed(2), anonlead.WithIsoperimetric(prof.Isoperimetric))
	if err != nil {
		panic(err)
	}
	fmt.Println("unique:", out.Unique)
	fmt.Println("certified:", out.Certificate != nil && out.Certificate.Estimate > 0)
	// Output:
	// unique: true
	// certified: true
}

// The promoted baselines are first-class registry entries.
func ExampleNetwork_Run_floodmax() {
	nw, err := anonlead.NewNetwork("expander", 64, 7)
	if err != nil {
		panic(err)
	}
	out, err := nw.Run(context.Background(), anonlead.ProtoFloodMax, anonlead.WithSeed(1))
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile(anonlead.ProfileAuto)
	if err != nil {
		panic(err)
	}
	fmt.Println("unique:", out.Unique, "rounds bounded by diameter+5:", out.Rounds <= prof.Diameter+5)
	// Output:
	// unique: true rounds bounded by diameter+5: true
}

func ExampleNetwork_Run_walknotify() {
	nw, err := anonlead.NewNetwork("expander", 64, 7)
	if err != nil {
		panic(err)
	}
	out, err := nw.Run(context.Background(), anonlead.ProtoWalkNotify, anonlead.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("unique:", out.Unique)
	// Output:
	// unique: true
}

// A fault-injected public run: the adversary is declared, deterministic,
// and its damage lands on the public Outcome counters.
func ExampleNetwork_Run_adversary() {
	nw, err := anonlead.NewNetwork("expander", 64, 7)
	if err != nil {
		panic(err)
	}
	spec := anonlead.AdversarySpec{CrashFraction: 0.25, CrashBy: 3}
	fmt.Println("descriptor:", spec.Descriptor())
	out, err := nw.Run(context.Background(), anonlead.ProtoFloodMax,
		anonlead.WithSeed(5), anonlead.WithAdversary(spec))
	if err != nil {
		panic(err)
	}
	fmt.Println("crashed nodes observed:", out.Crashed > 0)
	// Output:
	// descriptor: crash=0.25@3
	// crashed nodes observed: true
}

func ExampleProtocols() {
	for _, name := range anonlead.Protocols() {
		fmt.Println(name)
	}
	// Output:
	// ire
	// explicit
	// revocable
	// floodmax
	// allflood
	// walknotify
}
