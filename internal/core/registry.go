package core

import (
	"fmt"

	"anonlead/internal/sim"
)

// ProtoConfig is the one protocol configuration: the union of every
// registered protocol's tunables, with zero values meaning "protocol
// default". The public anonlead.Run path, the experiment harness and
// cmd/ledist all assemble a ProtoConfig and hand it to a registered
// builder, which resolves it — validation, defaults, derived lengths —
// exactly once per Build; no protocol has a config type of its own.
type ProtoConfig struct {
	// TrueN is the actual node count of the simulated graph. Always set by
	// the runner; no builder reads it.
	TrueN int
	// N is the network size the protocol is told (required by every
	// protocol but revocable). It differs from TrueN in the knowledge
	// ablation (Dieudonné–Pelc misreporting).
	N int
	// TMix is the lazy-walk mixing time input, or an upper bound (ire,
	// explicit, walknotify).
	TMix int
	// Phi is the conductance input Φ(G), or a lower bound (ire, explicit).
	Phi float64
	// Diam is the diameter bound (floodmax, allflood).
	Diam int
	// C scales the analysis constant c — candidate rate (C·ln n)/n, walk
	// and broadcast lengths C·tmix·ln n — for every protocol that has one.
	// Zero selects DefaultC.
	C float64
	// X overrides the IRE walk count per candidate; zero selects the
	// paper's x = √(n·log n/(Φ·tmix)), scaled by XFactor (zero = 1).
	X       int
	XFactor float64
	// BroadcastOnly stops IRE after the cautious-broadcast phase (no walks,
	// no convergecast, no leader): the Lemma 1 ablation's instrument for
	// territory sizes and broadcast cost in isolation.
	BroadcastOnly bool
	// AllNodes makes every floodmax node a candidate.
	AllNodes bool
	// Epsilon, Iso, FMult, RMult parameterize revocable election (see
	// revParams for ranges and defaults).
	Epsilon float64
	Iso     float64
	FMult   float64
	RMult   float64
	// MaxRounds caps an open-ended (revocable) run; 0 selects the default
	// budget (bounded when Faulted, since faults can make convergence
	// unreachable).
	MaxRounds int
	// MaxDelay is the adversary's delivery-jitter bound: fixed round
	// budgets are stretched by it so late packets can drain.
	MaxDelay int
	// Faulted reports that an adversary is active this run.
	Faulted bool
}

// Needs declares which profiled graph quantities a protocol consumes, so
// the runner only computes a (potentially lazy) spectral profile when a
// needed input was not supplied explicitly.
type Needs uint8

const (
	// NeedTMix marks the mixing-time input.
	NeedTMix Needs = 1 << iota
	// NeedPhi marks the conductance input.
	NeedPhi
	// NeedDiam marks the diameter input.
	NeedDiam
)

// Outcome is the unified per-run result a registered protocol's collector
// reads off a finished network. Leaders (and the explicit protocol's
// all-know clause) are judged over surviving nodes only: a crash-stopped
// node cannot claim or learn a leadership it will never act on.
type Outcome struct {
	// Leaders lists surviving node indices that raised the leader flag.
	Leaders []int
	// LeaderID is the elected leader's random ID (0 if none).
	LeaderID uint64
	// AllKnow reports whether every surviving node learned the leader.
	// Vacuously true for protocols without an announcement phase.
	AllKnow bool
	// Parents/Depths describe the announcement BFS tree (explicit only).
	Parents []int
	Depths  []int
	// HasCertificate and the certificate fields carry the revocable
	// leader certificate agreed by the surviving nodes.
	HasCertificate bool
	CertID         uint64
	CertEstimate   uint64
	FinalEstimate  uint64
}

// Runner is a built, ready-to-execute protocol: the machine factory plus
// the execution plan and the outcome collector.
type Runner struct {
	// Factory builds the per-node machines.
	Factory sim.Factory
	// Budget is the fixed round budget (protocol length plus halt slack
	// and adversary jitter). 0 means open-ended: the run is driven by
	// Converged under MaxRounds.
	Budget int
	// CheckEvery is the convergence poll period of an open-ended run.
	CheckEvery int
	// MaxRounds caps an open-ended run.
	MaxRounds int
	// Converged reports stabilization of an open-ended run. It receives a
	// read view instead of the concrete simulator so the same predicate
	// drives the in-memory and real-transport backends.
	Converged func(nw sim.View) bool
	// Collect reads the unified outcome off a finished execution. A builder
	// that leaves it nil gets collectLeaders; explicit and revocable set
	// their own because they also return a tree and a certificate.
	Collect func(nw sim.View) Outcome
}

// Entry is one protocol's registration: its canonical name, optional
// aliases, the profiled inputs it consumes, its builder and its wire codec.
type Entry struct {
	// Name is the canonical protocol name (the cell identity experiments
	// and artifacts key on).
	Name string
	// Aliases name the same protocol under legacy spellings.
	Aliases []string
	// Needs declares the profiled inputs the builder consumes.
	Needs Needs
	// Build resolves the config into an executable Runner.
	Build func(pc ProtoConfig) (Runner, error)
	// Wire serializes the protocol's payloads for the real-transport
	// backends; every protocol runs on every backend.
	Wire sim.WireCodec
}

var (
	registry []Entry
	byName   = map[string]int{}
)

// Register adds a protocol to the registry. It is called from package
// init functions only (this package registers the paper's protocols,
// internal/baseline the promoted baselines), so lookups need no locking.
// A missing name, builder or wire codec and duplicate names panic: they
// are programmer errors. The registered Build is e.Build behind the checks
// every protocol shares, with its errors prefixed by the protocol's name
// and the default collector filled in.
func Register(e Entry) {
	if e.Name == "" || e.Build == nil || e.Wire == nil {
		panic("core: protocol registration requires a name, a builder and a wire codec")
	}
	if _, dup := byName[e.Name]; dup {
		panic("core: duplicate protocol registration " + e.Name)
	}
	byName[e.Name] = len(registry)
	for _, a := range e.Aliases {
		if _, dup := byName[a]; dup {
			panic("core: duplicate protocol alias " + a)
		}
		byName[a] = len(registry)
	}
	build := e.Build
	e.Build = func(pc ProtoConfig) (Runner, error) {
		if pc.MaxDelay < 0 {
			return Runner{}, fmt.Errorf("core: %s: MaxDelay must be >= 0, got %d", e.Name, pc.MaxDelay)
		}
		r, err := build(pc)
		if err != nil {
			return Runner{}, fmt.Errorf("core: %s: %w", e.Name, err)
		}
		if r.Collect == nil {
			r.Collect = collectLeaders
		}
		return r, nil
	}
	registry = append(registry, e)
}

// Lookup resolves a protocol name or alias.
func Lookup(name string) (Entry, bool) {
	i, ok := byName[name]
	if !ok {
		return Entry{}, false
	}
	return registry[i], true
}

// Names lists the canonical protocol names in registration order (the
// paper's protocols first, then the baselines).
func Names() []string {
	names := make([]string, len(registry))
	for i, e := range registry {
		names[i] = e.Name
	}
	return names
}

func init() {
	Register(Entry{
		Name:  "ire",
		Needs: NeedTMix | NeedPhi,
		Build: buildIRE,
		Wire:  wireCodec{},
	})
	Register(Entry{
		Name:  "explicit",
		Needs: NeedTMix | NeedPhi,
		Build: buildExplicit,
		Wire:  wireCodec{},
	})
	Register(Entry{
		Name:  "revocable",
		Build: buildRevocable,
		Wire:  wireCodec{},
	})
}

// collectLeaders is the collector of every protocol whose outcome is only
// who leads, read through sim.LeaderReporter.
func collectLeaders(nw sim.View) Outcome {
	out := Outcome{AllKnow: true}
	for v := 0; v < nw.N(); v++ {
		if nw.Crashed(v) {
			continue
		}
		if leader, id := nw.Machine(v).(sim.LeaderReporter).LeaderInfo(); leader {
			out.Leaders = append(out.Leaders, v)
			out.LeaderID = id
		}
	}
	return out
}
