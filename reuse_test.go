package anonlead

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"anonlead/internal/core"
)

// reuseRun is what one election shows a caller: its outcome, its error
// text and the rounds its observer saw.
type reuseRun struct {
	out    Outcome
	err    string
	rounds []RoundInfo
}

func runObserved(nw *Network, proto string, seed uint64, spec AdversarySpec, opts ...Option) reuseRun {
	var r reuseRun
	out, err := nw.Run(context.Background(), proto, append(opts, WithSeed(seed), WithAdversary(spec),
		WithObserver(func(ri RoundInfo) { r.rounds = append(r.rounds, ri) }))...)
	r.out = out
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// runCut runs an election that its context cancels after round 1, so it
// leaves the simulator mid-run: sleepers, mail, in-flight and parked
// packets.
func runCut(t *testing.T, nw *Network, proto string, seed uint64, spec AdversarySpec) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := nw.Run(ctx, proto, WithSeed(seed), WithAdversary(spec), WithObserver(func(ri RoundInfo) {
		if ri.Round == 1 {
			cancel()
		}
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cut %s run: %v, want context.Canceled", proto, err)
	}
}

// reuseCell is one protocol on one graph.
type reuseCell struct {
	proto, family string
	n             int
}

// reuseCells are the protocol runs TestRunReusesNetworkExactly repeats:
// every registered protocol but revocable on expander-64 and cycle-12,
// and revocable on complete-4, whose polynomial schedule is simulable
// only on the smallest graphs. Revocable runs the Theorem 3 schedule,
// which stabilizes there in 53,824 rounds, under a cap of 60,000, so that
// faulted runs that never stabilize stop soon after.
func reuseCells() []reuseCell {
	var cells []reuseCell
	for _, proto := range Protocols() {
		if proto != ProtoRevocable {
			cells = append(cells, reuseCell{proto, "expander", 64}, reuseCell{proto, "cycle", 12})
		}
	}
	return append(cells, reuseCell{ProtoRevocable, "complete", 4})
}

// TestRunReusesNetworkExactly: a Network resets the simulator of its last
// run instead of building one, and that changes no outcome. Each protocol
// runs seeds a, b, a on one Network with another protocol between them,
// under no adversary and under loss, crash and jitter. The first run
// between uses a different adversary (none after a faulted run, crashes
// after a clean one), so ring lives and the crash ledger change from run
// to run; the second is cancelled mid-run under the case's adversary.
// Both seed-a runs, the first kept while the others go, must equal each
// other and the same run on a fresh Network: outcome, error and every
// observed round.
func TestRunReusesNetworkExactly(t *testing.T) {
	const a, b = 3, 4
	crash := AdversarySpec{CrashFraction: 0.1, CrashBy: 4}
	advs := []struct {
		name string
		spec AdversarySpec
	}{
		{"none", AdversarySpec{}},
		{"loss", AdversarySpec{Loss: 0.1}},
		{"crash", crash},
		{"jitter", AdversarySpec{DelayProb: 0.2, MaxDelay: 3}},
	}
	for _, c := range reuseCells() {
		for _, adv := range advs {
			t.Run(fmt.Sprintf("%s/%s-%d/%s", c.proto, c.family, c.n, adv.name), func(t *testing.T) {
				nw, err := NewNetwork(c.family, c.n, 1)
				if err != nil {
					t.Fatal(err)
				}
				var opts []Option
				if c.proto == ProtoRevocable {
					prof, err := nw.Profile()
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, WithProtoConfig(core.ProtoConfig{Iso: prof.Isoperimetric, MaxRounds: 60_000}))
				}
				other, between := ProtoFloodMax, AdversarySpec{}
				if c.proto == ProtoFloodMax {
					other = ProtoIRE
				}
				if adv.name == "none" {
					between = crash
				}
				first := runObserved(nw, c.proto, a, adv.spec, opts...)
				runObserved(nw, other, a, between)
				runObserved(nw, c.proto, b, adv.spec, opts...)
				runCut(t, nw, other, b, adv.spec)
				again := runObserved(nw, c.proto, a, adv.spec, opts...)

				fresh, err := NewNetwork(c.family, c.n, 1)
				if err != nil {
					t.Fatal(err)
				}
				want := runObserved(fresh, c.proto, a, adv.spec, opts...)
				if len(want.rounds) == 0 {
					t.Fatal("the observer saw no round")
				}
				for name, got := range map[string]reuseRun{"first": first, "again": again} {
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s seed-%d run differs from a fresh network's:\ngot  %+v (%s)\nwant %+v (%s)",
							name, a, got.out, got.err, want.out, want.err)
					}
				}
			})
		}
	}
}

// TestRunReusesNetworkConcurrently: elections from four goroutines on one
// Network each get a simulator of their own (one is kept between runs),
// and each equals the same election on a fresh Network.
func TestRunReusesNetworkConcurrently(t *testing.T) {
	const workers, perWorker = 4, 6
	nw, err := NewNetwork("expander", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := []string{ProtoIRE, ProtoFloodMax, ProtoWalkNotify}
	specs := []AdversarySpec{{}, {DelayProb: 0.2, MaxDelay: 3}}
	job := func(w, i int) (string, uint64, AdversarySpec) {
		return protos[(w+i)%len(protos)], uint64(w*perWorker + i%3), specs[i%len(specs)]
	}
	got := make([][]reuseRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				proto, seed, spec := job(w, i)
				got[w] = append(got[w], runObserved(nw, proto, seed, spec))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			proto, seed, spec := job(w, i)
			fresh, err := NewNetwork("expander", 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := runObserved(fresh, proto, seed, spec); !reflect.DeepEqual(r, want) {
				t.Errorf("worker %d run %d (%s seed %d %s) differs from a fresh network's:\ngot  %+v\nwant %+v",
					w, i, proto, seed, spec.Descriptor(), r.out, want.out)
			}
		}
	}
}
