// Spanning tree: explicit election with a leader-rooted BFS tree.
//
// The paper notes (Section 3) that once implicit leader election succeeds,
// explicit election, broadcast, and tree construction follow at an extra
// O(m) messages and O(D) time. This example runs the explicit protocol on a torus:
// the implicit Section 4 protocol elects, then the leader's announcement
// flood teaches every node the leader's ID and leaves each node with a
// parent pointer one hop closer to the leader — a BFS spanning tree ready
// for aggregation or scheduling duties. The tree arrives as the explicit
// protocol's per-protocol extras on the unified Run outcome.
//
//	go run ./examples/spanning-tree
package main

import (
	"context"
	"fmt"
	"log"

	"anonlead"
)

func main() {
	nw, err := anonlead.NewNetwork("torus", 36, 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := nw.Run(context.Background(), anonlead.ProtoExplicit, anonlead.WithSeed(11))
	if err != nil {
		log.Fatal(err)
	}
	if !res.Unique {
		log.Fatalf("election failed uniqueness (leaders=%v): rerun with another seed", res.Leaders)
	}
	leader := res.Leaders[0]
	fmt.Printf("leader: node %d (id=%d), known to all nodes: %t\n", leader, res.LeaderID, res.AllKnow)
	fmt.Printf("cost: %d messages, %d rounds\n", res.Messages, res.Rounds)

	// Render the tree as depth histogram plus a few sample root paths.
	maxDepth := 0
	for _, d := range res.Depths {
		if d > maxDepth {
			maxDepth = d
		}
	}
	hist := make([]int, maxDepth+1)
	for _, d := range res.Depths {
		hist[d]++
	}
	fmt.Println("tree depth histogram (depth: nodes):")
	for d, c := range hist {
		fmt.Printf("  %d: %d\n", d, c)
	}
	for _, v := range []int{0, nw.N() / 2, nw.N() - 1} {
		path := []int{v}
		for cur := v; cur != leader; {
			cur = res.Parents[cur]
			path = append(path, cur)
		}
		fmt.Printf("path %d -> leader: %v\n", v, path)
	}
}
