package anonlead

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"anonlead/internal/core"
	"anonlead/internal/transport"
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
// packets; on a wire backend, frames in the links.
func runCut(t *testing.T, nw *Network, proto string, seed uint64, spec AdversarySpec, opts ...Option) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := nw.Run(ctx, proto, append(opts, WithSeed(seed), WithAdversary(spec), WithObserver(func(ri RoundInfo) {
		if ri.Round == 1 {
			cancel()
		}
	}))...)
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

// keptCluster returns the cluster the network keeps for its next wire run,
// or nil.
func (nw *Network) keptCluster() *transport.Cluster {
	if k := nw.idleWire.Load(); k != nil {
		return k.cluster
	}
	return nil
}

// TestRunReusesNetworkExactly: a Network resets the simulator of its last
// run instead of building one, and the cluster of its last wire run that
// halted everywhere instead of connecting one, and that changes no
// outcome. Each protocol runs seeds a, b, a on one Network with another
// protocol between them, under no adversary and under loss, crash and
// jitter on the simulator, and under no adversary on chan, pipe and tcp.
// The first run between uses a different adversary on the simulator (none
// after a faulted run, crashes after a clean one), so ring lives and the
// crash ledger change from run to run, and on a wire backend another
// protocol's payload codec; the second is cancelled mid-run under the
// case's adversary. Both seed-a runs, the first kept while the others go,
// must equal each other and the same run on a fresh Network: outcome,
// error and every observed round. A wire run keeps its cluster exactly
// when it halted everywhere, so neither the cut run nor revocable, which
// stabilizes without halting, keeps one, and a run after one that did
// resets that cluster.
func TestRunReusesNetworkExactly(t *testing.T) {
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
			backends := []Transport{TransportSim}
			if adv.name == "none" {
				backends = append(backends, TransportChan, TransportPipe, TransportTCP)
			}
			for _, tr := range backends {
				name := fmt.Sprintf("%s/%s-%d/%s", c.proto, c.family, c.n, adv.name)
				if tr != TransportSim {
					name += "/" + tr.String()
				}
				testReuse(t, name, c, adv.spec, crash, tr)
			}
		}
	}
}

// testReuse runs one case of TestRunReusesNetworkExactly: c's protocol
// under spec over tr, crash being the simulator's adversary between runs
// of a clean case.
func testReuse(t *testing.T, name string, c reuseCell, spec, crash AdversarySpec, tr Transport) {
	const a, b = 3, 4
	t.Run(name, func(t *testing.T) {
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
			pc := core.ProtoConfig{Iso: prof.Isoperimetric, MaxRounds: 60_000}
			if tr != TransportSim {
				// A wire round takes tens of microseconds, so there the
				// schedule is a tenth as long: seeds a and b stabilize in
				// 896 rounds, not 53,824, and still reach Collect without
				// halting. TestTransportRevocableConvergence runs the full
				// schedule on every wire backend.
				pc.FMult, pc.RMult = 0.1, 0.1
			}
			opts = append(opts, WithProtoConfig(pc))
		}
		other, between := ProtoFloodMax, AdversarySpec{}
		if c.proto == ProtoFloodMax {
			other = ProtoIRE
		}
		if spec.IsZero() && tr == TransportSim {
			between = crash
		}
		wire := []Option{WithTransport(tr)}
		opts = append(opts, wire...)

		// kept checks what the network keeps after a wire run: a cluster
		// exactly when the run halted everywhere, and the very cluster the
		// run before kept, if it kept one.
		var last *transport.Cluster
		kept := func(run string, halts bool) {
			if tr == TransportSim {
				return
			}
			got := nw.keptCluster()
			switch {
			case !halts && got != nil:
				t.Errorf("%s kept its cluster", run)
			case halts && got == nil:
				t.Errorf("%s kept no cluster", run)
			case halts && last != nil && got != last:
				t.Errorf("%s connected a cluster instead of resetting the kept one", run)
			}
			last = got
		}
		halts := c.proto != ProtoRevocable
		first := runObserved(nw, c.proto, a, spec, opts...)
		kept("the first run", halts)
		runObserved(nw, other, a, between, wire...)
		kept("the run between", true)
		runObserved(nw, c.proto, b, spec, opts...)
		kept("the seed-b run", halts)
		runCut(t, nw, other, b, spec, wire...)
		kept("the cut run", false)
		again := runObserved(nw, c.proto, a, spec, opts...)
		kept("the second seed-a run", halts)

		fresh, err := NewNetwork(c.family, c.n, 1)
		if err != nil {
			t.Fatal(err)
		}
		want := runObserved(fresh, c.proto, a, spec, opts...)
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

// TestRunReusesNetworkConcurrently: elections from four goroutines on one
// Network each get a simulator, or over tcp a cluster, of their own (one
// of each is kept between runs, and a kept cluster another run's
// displaces is closed), and each equals the same election on a fresh
// Network.
func TestRunReusesNetworkConcurrently(t *testing.T) {
	const workers, perWorker = 4, 6
	nw, err := NewNetwork("expander", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	protos := []string{ProtoIRE, ProtoFloodMax, ProtoWalkNotify}
	specs := []AdversarySpec{{}, {DelayProb: 0.2, MaxDelay: 3}}
	job := func(w, i int) (string, uint64, AdversarySpec, Option) {
		proto, seed, spec, tr := protos[(w+i)%len(protos)], uint64(w*perWorker+i%3), specs[i%len(specs)], TransportSim
		if i%3 == 2 {
			spec, tr = AdversarySpec{}, TransportTCP
		}
		return proto, seed, spec, WithTransport(tr)
	}
	got := make([][]reuseRun, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				proto, seed, spec, tr := job(w, i)
				got[w] = append(got[w], runObserved(nw, proto, seed, spec, tr))
			}
		}(w)
	}
	wg.Wait()
	for w := range got {
		for i, r := range got[w] {
			proto, seed, spec, tr := job(w, i)
			fresh, err := NewNetwork("expander", 64, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := runObserved(fresh, proto, seed, spec, tr); !reflect.DeepEqual(r, want) {
				t.Errorf("worker %d run %d (%s seed %d %s) differs from a fresh network's:\ngot  %+v\nwant %+v",
					w, i, proto, seed, spec.Descriptor(), r.out, want.out)
			}
		}
	}
}

// settleGoroutines waits until the process runs no more goroutines than
// base.
func settleGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after %s: %d goroutines, %d before", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunReusesNetworkLeavesNoGoroutine: every goroutine of a tcp run ends
// with the run, whether the network keeps its cluster (the run halted
// everywhere) or closes it (the run was cancelled), and once the kept
// cluster is closed behind the network's back, the next run connects
// another. Each seed-1 run elects as the first did.
func TestRunReusesNetworkLeavesNoGoroutine(t *testing.T) {
	nw, err := NewNetwork("expander", 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	tcp := WithTransport(TransportTCP)
	base := runtime.NumGoroutine()
	want := runObserved(nw, ProtoWalkNotify, 1, AdversarySpec{}, tcp)
	settleGoroutines(t, base, "a run that halted everywhere")
	if nw.keptCluster() == nil {
		t.Fatal("a run that halted everywhere kept no cluster")
	}
	runCut(t, nw, ProtoWalkNotify, 2, AdversarySpec{}, tcp)
	settleGoroutines(t, base, "a cancelled run")
	if nw.keptCluster() != nil {
		t.Fatal("a cancelled run kept its cluster")
	}
	again := runObserved(nw, ProtoWalkNotify, 1, AdversarySpec{}, tcp)
	closed := nw.keptCluster()
	if closed == nil {
		t.Fatal("a run that halted everywhere kept no cluster")
	}
	closed.Close()
	settleGoroutines(t, base, "closing the kept cluster")
	last := runObserved(nw, ProtoWalkNotify, 1, AdversarySpec{}, tcp)
	if k := nw.keptCluster(); k == nil || k == closed {
		t.Fatal("the run after the kept cluster closed connected no cluster of its own")
	}
	for name, got := range map[string]reuseRun{"again": again, "last": last} {
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s run differs from the first:\ngot  %+v (%s)\nwant %+v (%s)", name, got.out, got.err, want.out, want.err)
		}
	}
}
