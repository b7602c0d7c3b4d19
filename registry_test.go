package anonlead

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
	"unsafe"

	"anonlead/internal/baseline"
	"anonlead/internal/core"
	"anonlead/internal/sim"
)

// TestRegistryPlansArePinned pins, for every protocol on three fixed cells
// with and without delivery jitter, the execution plan Build hands the
// runner and the round the election stops in. The numbers were recorded
// from the commit before the protocol layer moved to one config and one
// resolve per Build; a refactor of resolve/Build that shifts a default, a
// slack constant or the jitter stretch fails here by name.
func TestRegistryPlansArePinned(t *testing.T) {
	type plan struct{ budget, maxRounds, checkEvery, rounds int }
	// Keyed by protocol, then cell in the order complete/4, expander/64,
	// cycle/16, each without and with MaxDelay 3. rounds -1: not run (a
	// revocable election is simulable on complete/4 only, and under jitter
	// it runs to the faulted cap by design).
	const open, faulted = 200_000_000, 1_000_000
	want := map[string][6]plan{
		ProtoIRE: {
			{25, 0, 0, 22}, {28, 0, 0, 22},
			{382, 0, 0, 379}, {385, 0, 0, 379},
			{625, 0, 0, 622}, {628, 0, 0, 622},
		},
		ProtoExplicit: {
			{31, 0, 0, 27}, {34, 0, 0, 27},
			{448, 0, 0, 444}, {451, 0, 0, 444},
			{643, 0, 0, 639}, {646, 0, 0, 639},
		},
		ProtoRevocable: {
			{0, open, 64, 794304}, {0, faulted, 64, -1},
			{0, open, 64, -1}, {0, faulted, 64, -1},
			{0, open, 64, -1}, {0, faulted, 64, -1},
		},
		ProtoFloodMax: {
			{6, 0, 0, 4}, {9, 0, 0, 4},
			{9, 0, 0, 7}, {12, 0, 0, 7},
			{13, 0, 0, 11}, {16, 0, 0, 11},
		},
		ProtoAllFlood: {
			{6, 0, 0, 4}, {9, 0, 0, 4},
			{9, 0, 0, 7}, {12, 0, 0, 7},
			{13, 0, 0, 11}, {16, 0, 0, 11},
		},
		ProtoWalkNotify: {
			{18, 0, 0, 16}, {21, 0, 0, 16},
			{256, 0, 0, 254}, {259, 0, 0, 254},
			{418, 0, 0, 416}, {421, 0, 0, 416},
		},
	}
	cells := []struct {
		family string
		n      int
	}{{"complete", 4}, {"expander", 64}, {"cycle", 16}}
	for _, proto := range Protocols() {
		for ci, c := range cells {
			nw, err := NewNetwork(c.family, c.n, 1)
			if err != nil {
				t.Fatal(err)
			}
			for di, delay := range []int{0, 3} {
				w := want[proto][2*ci+di]
				if w.rounds > 100_000 && testing.Short() {
					w.rounds = -1
				}
				opts := []Option{WithSeed(7)}
				if delay > 0 {
					opts = append(opts, WithAdversary(AdversarySpec{DelayProb: 0.25, MaxDelay: delay}))
				}
				pc, err := nw.ProtoConfig(proto, opts...)
				if err != nil {
					t.Fatal(err)
				}
				entry, _ := core.Lookup(proto)
				r, err := entry.Build(pc)
				if err != nil {
					t.Fatal(err)
				}
				got := plan{r.Budget, r.MaxRounds, r.CheckEvery, w.rounds}
				if w.rounds >= 0 {
					out, err := nw.Run(context.Background(), proto, opts...)
					if err != nil || !out.Unique {
						t.Fatalf("%s on %s/%d delay %d: leaders %v, err %v", proto, c.family, c.n, delay, out.Leaders, err)
					}
					got.rounds = out.Rounds
				}
				if got != w {
					t.Errorf("%s on %s/%d delay %d: {budget maxRounds checkEvery rounds} = %v, recorded %v",
						proto, c.family, c.n, delay, got, w)
				}
			}
		}
	}
}

// initNode builds proto from pc and runs Init on the machine of one node
// of a run with a fixed seed, whichever protocol it is.
func initNode(t *testing.T, proto string, pc core.ProtoConfig, node int) sim.Machine {
	t.Helper()
	entry, _ := core.Lookup(proto)
	r, err := entry.Build(pc)
	if err != nil {
		t.Fatal(err)
	}
	st := sim.NewStepper(99, r.Factory, node, 3)
	st.Init()
	return st.Machine()
}

// TestCandidacyIsOneDraw: the paper's candidate sampling is one function,
// so on the same node seed IRE, FloodMax and WalkNotify hold the same
// (ID, candidacy) and AllFlood the same ID with candidacy forced.
func TestCandidacyIsOneDraw(t *testing.T) {
	type draw struct {
		id        uint64
		candidate bool
	}
	for _, n := range []int{8, 64, 1000} {
		pc := core.ProtoConfig{N: n, TMix: 10, Phi: 0.5, Diam: 4}
		candidates := 0
		for node := 0; node < 16; node++ {
			ire := initNode(t, ProtoIRE, pc, node).(*core.IREMachine).Output()
			if ire.ID < 1 || ire.ID > uint64(n*n)*uint64(n*n) {
				t.Fatalf("n=%d: ID %d outside [1, n^4]", n, ire.ID)
			}
			if ire.Candidate {
				candidates++
			}
			flood := initNode(t, ProtoFloodMax, pc, node).(*baseline.FloodMachine).Output()
			walk := initNode(t, ProtoWalkNotify, pc, node).(*baseline.WalkNotifyMachine).Output()
			all := initNode(t, ProtoAllFlood, pc, node).(*baseline.FloodMachine).Output()
			for proto, got := range map[string]draw{
				ProtoFloodMax:   {flood.ID, flood.Candidate},
				ProtoWalkNotify: {walk.ID, walk.Candidate},
				ProtoAllFlood:   {all.ID, ire.Candidate}, // candidacy is forced: checked below
			} {
				if want := (draw{ire.ID, ire.Candidate}); got != want {
					t.Errorf("n=%d node %d: %s drew %v, ire %v", n, node, proto, got, want)
				}
			}
			if !all.Candidate {
				t.Errorf("n=%d node %d: allflood node is not a candidate", n, node)
			}
		}
		if n == 8 && (candidates == 0 || candidates == 16) {
			t.Errorf("n=8: %d/16 candidates; the comparison wants both outcomes of the coin", candidates)
		}
	}
}

// TestBuildRejectsBadInputs: for every protocol, Build on zero, negative
// and out-of-range inputs returns an error naming the protocol and the
// field and never panics; the analysis constant and the walk tunables,
// whose zero means "default", refuse a negative or NaN value; the
// tunables whose zero or negative value means "default" still build; and
// a size whose n⁴ wraps to an empty ID space still initialises.
func TestBuildRejectsBadInputs(t *testing.T) {
	nan := math.NaN()
	const sized = "ire explicit floodmax allflood walknotify"
	bad := []struct {
		field  string
		protos string // the protocols that read the field
		mutate func(*core.ProtoConfig)
	}{
		{"N", sized, func(pc *core.ProtoConfig) { pc.N = 0 }},
		{"N", sized, func(pc *core.ProtoConfig) { pc.N = 1 }},
		{"N", sized, func(pc *core.ProtoConfig) { pc.N = -8 }},
		{"TMix", "ire explicit walknotify", func(pc *core.ProtoConfig) { pc.TMix = 0 }},
		{"TMix", "ire explicit walknotify", func(pc *core.ProtoConfig) { pc.TMix = -3 }},
		{"Phi", "ire explicit", func(pc *core.ProtoConfig) { pc.Phi = 0 }},
		{"Phi", "ire explicit", func(pc *core.ProtoConfig) { pc.Phi = -0.1 }},
		{"Phi", "ire explicit", func(pc *core.ProtoConfig) { pc.Phi = 1.5 }},
		{"Phi", "ire explicit", func(pc *core.ProtoConfig) { pc.Phi = nan }},
		{"C", sized, func(pc *core.ProtoConfig) { pc.C = -1 }},
		{"C", sized, func(pc *core.ProtoConfig) { pc.C = nan }},
		{"X", "ire explicit", func(pc *core.ProtoConfig) { pc.X = -1 }},
		{"XFactor", "ire explicit", func(pc *core.ProtoConfig) { pc.XFactor = -1 }},
		{"XFactor", "ire explicit", func(pc *core.ProtoConfig) { pc.XFactor = nan }},
		{"Diam", "floodmax allflood", func(pc *core.ProtoConfig) { pc.Diam = 0 }},
		{"Diam", "floodmax allflood", func(pc *core.ProtoConfig) { pc.Diam = -1 }},
		{"Epsilon", "revocable", func(pc *core.ProtoConfig) { pc.Epsilon = -0.5 }},
		{"Epsilon", "revocable", func(pc *core.ProtoConfig) { pc.Epsilon = 1.5 }},
		{"Epsilon", "revocable", func(pc *core.ProtoConfig) { pc.Epsilon = nan }},
		{"Iso", "revocable", func(pc *core.ProtoConfig) { pc.Iso = -1 }},
		{"FMult", "revocable", func(pc *core.ProtoConfig) { pc.FMult = -1 }},
		{"RMult", "revocable", func(pc *core.ProtoConfig) { pc.RMult = -0.5 }},
		{"MaxDelay", sized + " revocable", func(pc *core.ProtoConfig) { pc.MaxDelay = -1 }},
	}
	build := func(proto string, pc core.ProtoConfig) (r core.Runner, err error) {
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: Build(%+v) panicked: %v", proto, pc, p)
				err = errors.New("panicked")
			}
		}()
		entry, _ := core.Lookup(proto)
		return entry.Build(pc)
	}
	for _, proto := range Protocols() {
		valid := core.ProtoConfig{TrueN: 16, N: 16, TMix: 10, Phi: 0.5, Diam: 4}
		if _, err := build(proto, valid); err != nil {
			t.Fatalf("%s: valid config rejected: %v", proto, err)
		}
		if _, err := build(proto, core.ProtoConfig{}); (err == nil) != (proto == ProtoRevocable) {
			t.Errorf("%s: Build on the zero config: err %v (only revocable needs no input)", proto, err)
		}
		for _, b := range bad {
			if !strings.Contains(b.protos, proto) {
				continue
			}
			pc := valid
			b.mutate(&pc)
			_, err := build(proto, pc)
			if err == nil || !strings.HasPrefix(err.Error(), "core: "+proto+": ") || !strings.Contains(err.Error(), b.field) {
				t.Errorf("%s: Build(%+v): err %v; want an error naming the protocol and %s", proto, pc, err, b.field)
			}
		}
		defaults := valid
		defaults.MaxRounds = -1
		if _, err := build(proto, defaults); err != nil {
			t.Errorf("%s: a negative MaxRounds, which selects the default, rejected: %v", proto, err)
		}
		if proto != ProtoRevocable {
			wrapped := valid
			wrapped.N = 1 << 16 // n⁴ ≡ 0 (mod 2⁶⁴)
			initNode(t, proto, wrapped, 0)
		}
	}
}

// TestMachineSizes keeps every per-node machine no larger than it was
// before the protocol layer lost its mirror configs (100 000 FloodMachines
// are what the floodmax-expander-100k workload's bytes per message sees).
func TestMachineSizes(t *testing.T) {
	for _, m := range []struct {
		name      string
		got, most uintptr
	}{
		{"IREMachine", unsafe.Sizeof(core.IREMachine{}), 240},
		{"ExplicitMachine", unsafe.Sizeof(core.ExplicitMachine{}), 344},
		{"RevocableMachine", unsafe.Sizeof(core.RevocableMachine{}), 256},
		{"FloodMachine", unsafe.Sizeof(baseline.FloodMachine{}), 88},
		{"WalkNotifyMachine", unsafe.Sizeof(baseline.WalkNotifyMachine{}), 256},
	} {
		if m.got > m.most {
			t.Errorf("%s is %d bytes, was %d", m.name, m.got, m.most)
		}
		t.Logf("%s: %d bytes (was %d)", m.name, m.got, m.most)
	}
}
