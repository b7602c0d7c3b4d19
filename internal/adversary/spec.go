package adversary

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
	"anonlead/internal/sim"
)

// Spec declares a deterministic fault-injection adversary: what WithAdversary
// takes (the root package aliases this type as anonlead.AdversarySpec), what
// a sweep cell records in the bench artifact and what the trajectory
// tooling aligns cells by. The zero value means "no adversary" and builds
// to nil, so a run with a zero spec is byte-identical to one without an
// adversary at all and degradation curves can anchor at a genuinely
// unperturbed cell. Dropped and delayed packets still count in Messages,
// Bits and link-slot charging: the sender transmitted them.
type Spec struct {
	// Loss is the per-packet Bernoulli drop probability.
	Loss float64 `json:"loss,omitempty"`

	// CrashFraction is the expected fraction of nodes that crash-stop;
	// each crashing node picks a uniform crash round in [0, CrashBy].
	CrashFraction float64 `json:"crash_fraction,omitempty"`
	// CrashBy is the last round at which a sampled crash may fire.
	CrashBy int `json:"crash_by,omitempty"`
	// CrashSchedule fixes exact (node → round) crashes instead of sampling
	// (bespoke experiments and tests; not part of the descriptor grid).
	CrashSchedule map[int]int `json:"crash_schedule,omitempty"`

	// Churn is the per-edge per-round down probability.
	Churn float64 `json:"churn,omitempty"`
	// ChurnPreserve keeps a BFS spanning tree up so churn never
	// disconnects the live graph.
	ChurnPreserve bool `json:"churn_preserve,omitempty"`

	// DelayProb is the probability a delivered packet is late.
	DelayProb float64 `json:"delay_prob,omitempty"`
	// MaxDelay bounds the lateness (uniform 1..MaxDelay extra rounds).
	MaxDelay int `json:"max_delay,omitempty"`

	// AdaptiveCrash enables the traffic-adaptive crash adversary: every
	// AdaptiveWindow rounds the AdaptiveCrash busiest nodes of that window
	// crash-stop — targeting the busiest node approximates targeting the
	// emerging leader. Victims are a pure function of the observed traffic
	// (no extra randomness), so adaptive runs stay deterministic per seed.
	// 0 disables.
	AdaptiveCrash int `json:"adaptive_crash,omitempty"`
	// AdaptiveWindow is the observation window in rounds (0 = default 8).
	AdaptiveWindow int `json:"adaptive_window,omitempty"`
	// AdaptiveStrikes bounds how many windows claim victims (0 = default 1).
	AdaptiveStrikes int `json:"adaptive_strikes,omitempty"`
}

// ErrCrashNodeOutOfRange is returned by Build for a CrashSchedule entry
// naming a node the network does not have.
var ErrCrashNodeOutOfRange = errors.New("adversary: crash schedule names a node outside the network")

// Adaptive-adversary defaults applied when the fields are left zero with
// AdaptiveCrash > 0.
const (
	DefaultAdaptiveWindow  = 8
	DefaultAdaptiveStrikes = 1
)

// adaptiveParams resolves the zero-value defaults.
func (s Spec) adaptiveParams() (window, strikes int) {
	window, strikes = s.AdaptiveWindow, s.AdaptiveStrikes
	if window <= 0 {
		window = DefaultAdaptiveWindow
	}
	if strikes <= 0 {
		strikes = DefaultAdaptiveStrikes
	}
	return window, strikes
}

// IsZero reports whether the spec configures no perturbation at all. Rates
// of exactly zero disable their fault kind, so e.g. Spec{Loss: 0} is zero.
func (s Spec) IsZero() bool {
	return s.Loss == 0 && s.CrashFraction == 0 && len(s.CrashSchedule) == 0 &&
		s.Churn == 0 && (s.DelayProb == 0 || s.MaxDelay == 0) &&
		s.AdaptiveCrash == 0
}

// Validate rejects out-of-range parameters, NaN probabilities included.
func (s Spec) Validate() error {
	for _, c := range []struct {
		name string
		p    float64
	}{{"loss", s.Loss}, {"crash", s.CrashFraction}, {"churn", s.Churn}, {"delay", s.DelayProb}} {
		if !(c.p >= 0 && c.p <= 1) {
			return fmt.Errorf("adversary: %s probability %v outside [0,1]", c.name, c.p)
		}
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"crash-by round", s.CrashBy}, {"max delay", s.MaxDelay}, {"adaptive crash count", s.AdaptiveCrash},
		{"adaptive window", s.AdaptiveWindow}, {"adaptive strikes", s.AdaptiveStrikes}} {
		if c.v < 0 {
			return fmt.Errorf("adversary: negative %s %d", c.name, c.v)
		}
	}
	for v, r := range s.CrashSchedule {
		if v < 0 || r < 0 {
			return fmt.Errorf("adversary: invalid crash schedule entry node %d round %d", v, r)
		}
	}
	if s.AdaptiveCrash == 0 && (s.AdaptiveWindow != 0 || s.AdaptiveStrikes != 0) {
		return fmt.Errorf("adversary: adaptive window/strikes set without adaptive_crash")
	}
	return nil
}

// DeriveRunSeed derives a run's fault-injection stream seed from the
// run's root seed. The labeled split keeps the adversary's randomness
// disjoint from the protocol machines' (which split from the raw seed),
// so enabling a zero-rate adversary perturbs nothing. This is THE
// canonical derivation: the public anonlead.Run path and the experiment
// harness both use it, which is what keeps fault-injected sweeps
// byte-identical across the two surfaces.
func DeriveRunSeed(runSeed uint64) uint64 {
	return rng.New(runSeed).SplitString("adversary").DeriveSeed(0)
}

// fnum renders a probability compactly and canonically (no trailing
// zeros), so descriptors are stable cell-key material.
func fnum(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Descriptor canonically names the configuration, e.g.
// "loss=0.1,crash=0.25@16,churn=0.05+conn,delay=0.5x3". The grammar is a
// comma-joined list of the active fault kinds, each rendered with minimal
// decimal probabilities:
//
//	loss=<p>              Bernoulli packet loss at rate p
//	crash=<f>@<r>         fraction f of nodes crash by round r
//	crashsched=<k>        k explicitly scheduled crashes
//	churn=<p>[+conn]      per-edge downtime at rate p (+conn preserves
//	                      connectivity via a spanning tree)
//	delay=<p>x<d>         delivery jitter: probability p, 1..d rounds late
//	adaptive=<k>@<w>[x<s>] traffic-adaptive crashes: k busiest nodes per
//	                      w-round window, s strike windows (omitted at the
//	                      default s=1); defaults are rendered resolved
//
// A zero spec yields "". The descriptor is the adversary component of a
// sweep cell's identity — artifact cells persist it and trajectory
// alignment keys on it — so it is stable across versions.
func (s Spec) Descriptor() string {
	var parts []string
	if s.Loss > 0 {
		parts = append(parts, "loss="+fnum(s.Loss))
	}
	if s.CrashFraction > 0 {
		parts = append(parts, fmt.Sprintf("crash=%s@%d", fnum(s.CrashFraction), s.CrashBy))
	}
	if len(s.CrashSchedule) > 0 {
		parts = append(parts, fmt.Sprintf("crashsched=%d", len(s.CrashSchedule)))
	}
	if s.Churn > 0 {
		c := "churn=" + fnum(s.Churn)
		if s.ChurnPreserve {
			c += "+conn"
		}
		parts = append(parts, c)
	}
	if s.DelayProb > 0 && s.MaxDelay > 0 {
		parts = append(parts, fmt.Sprintf("delay=%sx%d", fnum(s.DelayProb), s.MaxDelay))
	}
	if s.AdaptiveCrash > 0 {
		window, strikes := s.adaptiveParams()
		a := fmt.Sprintf("adaptive=%d@%d", s.AdaptiveCrash, window)
		if strikes > 1 {
			a += fmt.Sprintf("x%d", strikes)
		}
		parts = append(parts, a)
	}
	return strings.Join(parts, ",")
}

// Build constructs the runtime adversary for one trial on g, deriving each
// fault kind's stream from seed by labeled splitting (so the kinds never
// correlate). A zero spec returns (nil, nil): no adversary, and therefore
// a run byte-identical to an unperturbed one.
func (s Spec) Build(g *graph.Graph, seed uint64) (sim.Adversary, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if s.IsZero() {
		return nil, nil
	}
	n := 0
	if g != nil {
		n = g.N()
	}
	// The descriptor counts every schedule entry: refuse a schedule the
	// cell identity would misreport. The lowest offender is named, whatever
	// the map iteration order.
	bad := -1
	for v := range s.CrashSchedule {
		if v >= n && (bad < 0 || v < bad) {
			bad = v
		}
	}
	if bad >= 0 {
		return nil, fmt.Errorf("%w: node %d in a %d-node network", ErrCrashNodeOutOfRange, bad, n)
	}
	root := rng.New(seed)
	sub := func(label string) uint64 { return root.SplitString(label).DeriveSeed(0) }
	a := &injector{}
	if s.Loss > 0 {
		a.loss, a.lossSeed = s.Loss, sub("loss")
	}
	if s.CrashFraction > 0 || len(s.CrashSchedule) > 0 {
		a.crashAt = s.crashRounds(n, sub("crash"))
	}
	if s.Churn > 0 {
		a.churn, a.churnSeed = s.Churn, sub("churn")
		a.down = make(map[uint64]bool)
		if s.ChurnPreserve && n > 0 {
			a.protected = spanningTree(g)
		}
	}
	if s.DelayProb > 0 && s.MaxDelay > 0 {
		a.delayProb, a.maxDelay, a.delaySeed = s.DelayProb, s.MaxDelay, sub("delay")
	}
	if a.loss > 0 || a.maxDelay > 0 {
		a.counts = make(map[uint64]int)
	}
	if s.AdaptiveCrash > 0 {
		a.k = s.AdaptiveCrash
		a.window, a.strikes = s.adaptiveParams()
		a.acc = make([]int64, n)
	}
	return a, nil
}

// crashRounds is each node's crash round (-1 = never): the earlier of its
// sampled one — with probability CrashFraction, uniform in [0, CrashBy],
// from the node's own decision stream — and its scheduled one.
func (s Spec) crashRounds(n int, seed uint64) []int {
	at := make([]int, n)
	for v := range at {
		at[v] = -1
		if s.CrashFraction > 0 {
			r := decision(seed, uint64(v))
			if r.Bernoulli(s.CrashFraction) {
				// Uint64n, not Intn: CrashBy+1 overflows int at CrashBy = MaxInt.
				at[v] = int(r.Uint64n(uint64(s.CrashBy) + 1))
			}
		}
	}
	for v, r := range s.CrashSchedule {
		if at[v] < 0 || r < at[v] {
			at[v] = r
		}
	}
	return at
}
