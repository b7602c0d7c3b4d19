package anonlead_test

import (
	"context"
	"fmt"

	"anonlead"
	"anonlead/internal/harness"
	"anonlead/internal/report"
)

// Elect a leader in an anonymous network of known size: the paper's
// Irrevocable Leader Election (cautious broadcast, random-walk probes,
// convergecast) on a 256-node expander (6-regular random graph). Every
// protocol in the registry runs through the same Run call; the outcome
// carries the leaders, uniqueness and the exact CONGEST cost accounting.
func ExampleNetwork_Run() {
	nw, err := anonlead.NewNetwork("expander", 256, 1)
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("network: n=%d m=%d diameter=%d tmix=%d phi=%.3f\n",
		prof.N, prof.M, prof.Diameter, prof.MixingTime, prof.Conductance)

	out, err := nw.Run(context.Background(), anonlead.ProtoIRE, anonlead.WithSeed(42))
	if err != nil {
		panic(err)
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
			panic(err)
		}
		if r.Unique {
			unique++
		}
	}
	fmt.Printf("unique-leader rate over %d seeds: %d/%d\n", trials, unique, trials)
	// Output:
	// network: n=256 m=768 diameter=5 tmix=25 phi=0.241
	// leaders elected: [171] (unique=true)
	// cost: 34632 messages, 911832 bits, 838 rounds (897 CONGEST-charged)
	// unique-leader rate over 10 seeds: 10/10
}

// Explicit election with a leader-rooted BFS tree. Once implicit election
// succeeds, explicit election, broadcast and tree construction follow at
// an extra O(m) messages and O(D) time (Section 3): the leader's
// announcement flood teaches every node the leader's ID and leaves each
// node a parent pointer one hop closer to the leader. The tree arrives as
// the explicit protocol's extras on the outcome.
func ExampleNetwork_Run_explicit() {
	nw, err := anonlead.NewNetwork("torus", 36, 4)
	if err != nil {
		panic(err)
	}
	res, err := nw.Run(context.Background(), anonlead.ProtoExplicit, anonlead.WithSeed(11))
	if err != nil {
		panic(err)
	}
	leader := res.Leaders[0]
	fmt.Println("unique:", res.Unique, "leader is tree root:", res.Parents[leader] == -1 && res.Depths[leader] == 0)
	fmt.Printf("leader: node %d (id=%d), known to all nodes: %t\n", leader, res.LeaderID, res.AllKnow)
	fmt.Printf("cost: %d messages, %d rounds\n", res.Messages, res.Rounds)

	// The tree as a depth histogram plus a few root paths.
	maxDepth := 0
	for _, d := range res.Depths {
		maxDepth = max(maxDepth, d)
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
	// Output:
	// unique: true leader is tree root: true
	// leader: node 22 (id=1604519), known to all nodes: true
	// cost: 3960 messages, 407 rounds
	// tree depth histogram (depth: nodes):
	//   0: 1
	//   1: 4
	//   2: 8
	//   3: 10
	//   4: 8
	//   5: 4
	//   6: 1
	// path 0 -> leader: [0 6 12 18 23 22]
	// path 18 -> leader: [18 23 22]
	// path 35 -> leader: [35 29 23 22]
}

// Revocable election when nobody knows how many nodes exist: a 3x3 sensor
// mesh whose devices are not told n=9. By Theorem 2 no algorithm can
// elect a leader and stop, so the devices probe doubling size estimates
// with a potential-diffusion detector, choose random IDs certified by the
// estimate in force, and converge on the smallest ID with the largest
// certificate. The mesh's isoperimetric bound selects Theorem 3's
// diffusion schedule; the calibration shortens the (polynomially huge)
// faithful schedule while keeping the detector's behaviour.
func ExampleNetwork_Run_revocable() {
	nw, err := anonlead.NewNetwork("grid", 9, 7)
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("mesh: n=%d m=%d diameter=%d i(G)=%.3f\n",
		prof.N, prof.M, prof.Diameter, prof.Isoperimetric)

	res, err := nw.Run(context.Background(), anonlead.ProtoRevocable,
		anonlead.WithSeed(3),
		anonlead.WithIsoperimetric(prof.Isoperimetric),
		anonlead.WithEpsilon(0.5),
		anonlead.WithCalibration(0.5, 0.05),
	)
	if err != nil {
		panic(err)
	}
	fmt.Printf("stabilized leader: node %v (unique=%t)\n", res.Leaders, res.Unique)
	fmt.Printf("certificate: id=%d chosen at size estimate k=%d (final estimate %d, true n=%d)\n",
		res.Certificate.ID, res.Certificate.Estimate, res.FinalEstimate, prof.N)
	fmt.Printf("cost: %d messages, %d logical rounds, %d CONGEST-charged rounds\n",
		res.Messages, res.Rounds, res.ChargedRounds)
	fmt.Println("note: per Theorem 2 the devices can never halt — the harness observed")
	fmt.Println("stabilization externally once the estimate passed 4n (Theorem 3).")
	// Output:
	// mesh: n=9 m=12 diameter=4 i(G)=1.000
	// stabilized leader: node [2] (unique=true)
	// certificate: id=13076872 chosen at size estimate k=8 (final estimate 16, true n=9)
	// cost: 2219280 messages, 92608 logical rounds, 10713320 CONGEST-charged rounds
	// note: per Theorem 2 the devices can never halt — the harness observed
	// stabilization externally once the estimate passed 4n (Theorem 3).
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
	prof, err := nw.Profile()
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

// Degradation curves under deterministic fault injection, the same
// resilience curves as `lebench -exp faults`: a protocol on a fixed
// topology swept over adversary severities, each ladder anchored at the
// fault-free point (a zero AdversarySpec is byte-identical to no
// adversary). Every fault decision is a pure function of the run seed, and
// the damage lands on the outcome's Dropped, Delayed and Crashed counters.
// The last run streams per-round metrics through WithObserver.
func ExampleNetwork_Run_adversary() {
	ctx := context.Background()
	nw, err := anonlead.NewNetwork("expander", 64, 21)
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("expander: n=%d m=%d tmix=%d phi=%.3f\n\n", prof.N, prof.M, prof.MixingTime, prof.Conductance)

	const trials = 8
	curve := func(proto string, ladder []anonlead.AdversarySpec) {
		fmt.Printf("  %-22s %9s %10s %9s %9s %9s\n", "adversary", "success", "msgs", "dropped", "delayed", "crashed")
		for _, spec := range ladder {
			var wins int
			var sum anonlead.Metrics
			for t := 0; t < trials; t++ {
				out, err := nw.Run(ctx, proto,
					anonlead.WithSeed(100+uint64(t)), anonlead.WithAdversary(spec))
				if err != nil {
					panic(err)
				}
				if out.Unique {
					wins++
				}
				sum.Add(out.Metrics)
			}
			name := spec.Descriptor()
			if name == "" {
				name = "(fault-free)"
			}
			mean := func(v int64) float64 { return float64(v) / trials }
			fmt.Printf("  %-22s %6d/%d %10.0f %9.1f %9.1f %9.1f\n", name, wins, trials,
				mean(sum.Messages), mean(sum.Dropped), mean(sum.Delayed), mean(int64(sum.Crashed)))
		}
		fmt.Println()
	}

	fmt.Println("F1: message loss vs IRE")
	curve(anonlead.ProtoIRE, []anonlead.AdversarySpec{
		{}, {Loss: 0.05}, {Loss: 0.1}, {Loss: 0.2},
	})
	fmt.Println("F2: crash-stop vs FloodMax")
	curve(anonlead.ProtoFloodMax, []anonlead.AdversarySpec{
		{}, {CrashFraction: 0.1, CrashBy: 3}, {CrashFraction: 0.25, CrashBy: 3}, {CrashFraction: 0.5, CrashBy: 3},
	})
	fmt.Println("F3: delivery jitter vs walk-and-notify")
	curve(anonlead.ProtoWalkNotify, []anonlead.AdversarySpec{
		{}, {DelayProb: 0.25, MaxDelay: 2}, {DelayProb: 0.5, MaxDelay: 4},
	})

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
		panic(err)
	}
	// Output:
	// expander: n=64 m=192 tmix=16 phi=0.271
	//
	// F1: message loss vs IRE
	//   adversary                success       msgs   dropped   delayed   crashed
	//   (fault-free)                8/8       8988       0.0       0.0       0.0
	//   loss=0.05                   8/8       4947     245.4       0.0       0.0
	//   loss=0.1                    8/8       3098     303.2       0.0       0.0
	//   loss=0.2                    7/8        986     196.6       0.0       0.0
	//
	// F2: crash-stop vs FloodMax
	//   adversary                success       msgs   dropped   delayed   crashed
	//   (fault-free)                8/8        762       0.0       0.0       0.0
	//   crash=0.1@3                 8/8        698       0.0       0.0       7.4
	//   crash=0.25@3                8/8        620       0.0       0.0      15.9
	//   crash=0.5@3                 8/8        473       0.0       0.0      31.4
	//
	// F3: delivery jitter vs walk-and-notify
	//   adversary                success       msgs   dropped   delayed   crashed
	//   (fault-free)                8/8       4720       0.0       0.0       0.0
	//   delay=0.25x2                8/8       4096       0.0    1008.2       0.0
	//   delay=0.5x4                 8/8       3178       0.0    1590.4       0.0
	//
	// observer: IRE under 10% loss, every 32 rounds
	//   round 0    halted=0   msgs=12      dropped=1
	//   round 32   halted=0   msgs=2329    dropped=237
	//   round 64   halted=0   msgs=3203    dropped=322
	//   round 96   halted=0   msgs=3203    dropped=322
	//   round 128  halted=0   msgs=3203    dropped=322
	//   round 160  halted=0   msgs=3832    dropped=382
	//   round 192  halted=0   msgs=4044    dropped=407
	//   round 224  halted=0   msgs=4065    dropped=409
	//   round 256  halted=0   msgs=4065    dropped=409
	//   round 288  halted=0   msgs=4567    dropped=456
	//   round 320  halted=0   msgs=4567    dropped=456
	//   round 352  halted=0   msgs=4567    dropped=456
	//   round 384  halted=0   msgs=4567    dropped=456
}

// Where the paper's protocol wins and loses: its Irrevocable LE
// (Õ(√(n·tmix/Φ)) messages), the Gilbert-class walk baseline (Õ(tmix·√n))
// and the Kutten-class FloodMax baseline (Θ(m) messages, Θ(D) rounds) on
// an expander, a cycle and the diameter-2 clique of cliques. This is the
// comparison Table 1 formalizes: flooding is cheap on time but pays m
// messages; the walk protocols win on messages on well-connected graphs;
// the √(tmix·Φ) advantage over the Gilbert class is largest on poorly
// conducting graphs like the cycle. Swapping protocols is a string, and
// each profile is the one the protocols' defaults are filled from.
func ExampleNetwork_Run_topologies() {
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
				panic(err)
			}
			prof, err := nw.Profile()
			if err != nil {
				panic(err)
			}
			fmt.Printf("  n=%d: m=%d D=%d tmix=%d phi=%.3f\n",
				prof.N, prof.M, prof.Diameter, prof.MixingTime, prof.Conductance)
			for _, proto := range protos {
				var sum anonlead.Metrics
				wins := 0
				for t := 0; t < trials; t++ {
					out, err := nw.Run(ctx, proto, anonlead.WithSeed(11+uint64(t)))
					if err != nil {
						panic(err)
					}
					sum.Add(out.Metrics)
					if out.Unique {
						wins++
					}
				}
				fmt.Printf("%-12s %6d %12.1f %8.1f %8.1f %5d/%d\n", proto, n,
					float64(sum.Messages)/trials, float64(sum.Rounds)/trials,
					float64(sum.ChargedRounds)/trials, wins, trials)
			}
		}
		fmt.Println()
	}
	// Output:
	// === expander ===
	// protocol          n         msgs   rounds  charged  success
	//   n=64: m=192 D=4 tmix=16 phi=0.271
	// ire              64       9032.8    406.0    456.4     5/5
	// walknotify       64       4748.2    272.0    276.2     5/5
	// floodmax         64        775.2      7.0      7.0     5/5
	//   n=128: m=384 D=5 tmix=20 phi=0.245
	// ire             128      14673.8    589.0    628.0     5/5
	// walknotify      128      12079.6    394.0    400.2     5/5
	// floodmax        128       1543.2      8.0      8.0     5/5
	//
	// === cycle ===
	// protocol          n         msgs   rounds  charged  success
	//   n=32: m=32 D=16 tmix=146 phi=0.062
	// ire              32      15056.6   3040.0   3048.0     5/5
	// walknotify       32      16718.4   2028.0   2037.0     5/5
	// floodmax         32        166.0     19.0     19.0     5/5
	//   n=64: m=64 D=32 tmix=582 phi=0.031
	// ire              64      82916.2  14527.0  14535.6     5/5
	// walknotify       64     147943.6   9686.0   9708.6     5/5
	// floodmax         64        338.0     35.0     35.0     5/5
	//
	// === diam2 ===
	// protocol          n         msgs   rounds  charged  success
	//   n=33: m=119 D=2 tmix=27 phi=0.143
	// ire              33       5891.8    571.0    604.4     5/5
	// walknotify       33       3681.4    382.0    382.0     5/5
	// floodmax         33        408.0      5.0      5.0     5/5
	//   n=65: m=288 D=2 tmix=42 phi=0.125
	// ire              65      15898.0   1057.0   1113.0     5/5
	// walknotify       65      12343.4    706.0    706.0     5/5
	// floodmax         65        907.2      5.0      5.0     5/5
}

// Theorem 2 breaking a terminating election: without knowing the network
// size, no algorithm can elect a single leader and stop. The known-size
// protocol is told n=10 but runs on ever larger cycles assembled from
// witnesses (Figure 1); local executions cannot tell the small cycle from
// the wheel within their time bound, so many regions elect leaders.
func Example_impossibility() {
	const presumedN = 10
	points, err := harness.SplitBrainExperiment(presumedN, []int{1, 2, 4}, 10, 5)
	if err != nil {
		panic(err)
	}
	fmt.Print(report.SplitBrainMarkdown(presumedN, points))
	fmt.Println("reading: every wheel elects many leaders; E[leaders] grows linearly in")
	fmt.Println("the number of planted witnesses because 2T(n)-separated regions run")
	fmt.Println("independent executions (the Figure 2 invariant). An irrevocable")
	fmt.Println("election that must stop by T(n) cannot ever be safe without knowing n.")
	// Output:
	// ## Figures 1–2 — pumping wheel, IRE presuming n = 10 on C_N
	//
	// `P(multi)` is the share of trials electing more than one leader; `split cores`
	// counts trials with a witness split-brained in both segments, `zero` trials
	// electing nobody.
	//
	// | witnesses | N | T(n) | P(multi) | 95% CI | E[leaders] | split cores | zero |
	// |---:|---:|---:|---:|---|---:|---:|---:|
	// | 1 | 816 | 199 | 1 | [0.722, 1.000] | 4.7 | 0 | 0 |
	// | 2 | 1632 | 199 | 1 | [0.722, 1.000] | 9.1 | 0 | 0 |
	// | 4 | 3264 | 199 | 1 | [0.722, 1.000] | 19 | 0 | 0 |
	//
	// reading: every wheel elects many leaders; E[leaders] grows linearly in
	// the number of planted witnesses because 2T(n)-separated regions run
	// independent executions (the Figure 2 invariant). An irrevocable
	// election that must stop by T(n) cannot ever be safe without knowing n.
}

// Repeated elections: each epoch crash-stops the previous leader and
// re-elects among the survivors, here under 10% message loss. The
// scenario's Metrics sum the epochs' costs, dropped packets included;
// Crashed is the last epoch's count, which already holds every earlier
// dead leader.
func ExampleNetwork_RunEpochs() {
	nw, err := anonlead.NewNetwork("expander", 32, 2)
	if err != nil {
		panic(err)
	}
	eo, err := nw.RunEpochs(context.Background(), anonlead.ProtoFloodMax, anonlead.Scenario{Epochs: 3},
		anonlead.WithSeed(7), anonlead.WithAdversary(anonlead.AdversarySpec{Loss: 0.1}))
	if err != nil {
		panic(err)
	}
	for _, e := range eo.Epochs {
		fmt.Printf("epoch %d: leader %d, %d messages, %d dropped, %d crashed\n",
			e.Epoch, e.Leader, e.Messages, e.Dropped, e.Crashed)
	}
	fmt.Printf("scenario: %d/%d elected, %d messages, %d dropped, %d crashed, %d rounds\n",
		eo.Elected, len(eo.Epochs), eo.Messages, eo.Dropped, eo.Crashed, eo.Rounds)
	// Output:
	// epoch 0: leader 7, 342 messages, 29 dropped, 0 crashed
	// epoch 1: leader 5, 312 messages, 25 dropped, 1 crashed
	// epoch 2: leader 6, 282 messages, 23 dropped, 2 crashed
	// scenario: 3/3 elected, 936 messages, 77 dropped, 2 crashed, 18 rounds
}

// A network from an explicit edge list: a 6-node ring where one edge is
// listed in both orientations and counts once. An endpoint outside the
// node range is an error naming the edge.
func ExampleNewNetworkFromEdges() {
	nw, err := anonlead.NewNetworkFromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {1, 0}})
	if err != nil {
		panic(err)
	}
	prof, err := nw.Profile()
	if err != nil {
		panic(err)
	}
	fmt.Printf("ring: n=%d m=%d diameter=%d\n", prof.N, prof.M, prof.Diameter)
	out, err := nw.Run(context.Background(), anonlead.ProtoFloodMax, anonlead.WithSeed(1))
	if err != nil {
		panic(err)
	}
	fmt.Println("unique:", out.Unique, "rounds:", out.Rounds)

	_, err = anonlead.NewNetworkFromEdges(6, [][2]int{{0, 1}, {1, 6}})
	fmt.Println(err)
	// Output:
	// ring: n=6 m=6 diameter=3
	// unique: true rounds: 6
	// anonlead: edge 1 (1,6) out of range [0,6)
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
