package core

import (
	"math"
	"reflect"
	"testing"
)

// rejects reports whether the registry refuses to build proto from pc.
func rejects(proto string, pc ProtoConfig) bool {
	e, _ := Lookup(proto)
	_, err := e.Build(pc)
	return err != nil
}

// TestRegisterRefusesNilWire: an entry without a wire codec panics before
// its name or aliases reach the registry, so every registered protocol runs
// on every backend.
func TestRegisterRefusesNilWire(t *testing.T) {
	names, aliases := Names(), len(byName)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Register accepted an entry with a nil Wire")
			}
		}()
		Register(Entry{Name: "nowire", Aliases: []string{"nowire-alias"}, Build: buildIRE})
	}()
	if _, ok := Lookup("nowire"); ok || !reflect.DeepEqual(Names(), names) || len(byName) != aliases {
		t.Fatalf("refused registration changed the registry: names %v, %d lookups (want %v, %d)",
			Names(), len(byName), names, aliases)
	}
}

func TestIREConfigValidation(t *testing.T) {
	valid := ProtoConfig{N: 16, TMix: 10, Phi: 0.5}
	if rejects("ire", valid) {
		t.Fatal("valid config rejected")
	}
	bad := []ProtoConfig{
		{N: 1, TMix: 10, Phi: 0.5},
		{N: 16, TMix: 0, Phi: 0.5},
		{N: 16, TMix: 10, Phi: 0},
		{N: 16, TMix: 10, Phi: -0.1},
		{N: 16, TMix: 10, Phi: 1.5},
		{N: 16, TMix: 10, Phi: 0.5, C: -1},
		{N: 16, TMix: 10, Phi: 0.5, C: math.NaN()},
		{N: 16, TMix: 10, Phi: 0.5, X: -3},
		{N: 16, TMix: 10, Phi: 0.5, XFactor: -1},
		{N: 16, TMix: 10, Phi: 0.5, XFactor: math.NaN()},
	}
	for i, cfg := range bad {
		if !rejects("ire", cfg) {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestIREResolvedDefaults(t *testing.T) {
	p, err := resolveIRE(ProtoConfig{N: 64, TMix: 20, Phi: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	wantProb := DefaultC * math.Log(64) / 64
	if math.Abs(p.cand.Prob-wantProb) > 1e-12 {
		t.Fatalf("candidate probability %v want %v", p.cand.Prob, wantProb)
	}
	if p.cand.MaxID != 64*64*64*64 {
		t.Fatalf("maxID %d want n^4", p.cand.MaxID)
	}
	wantX := int(math.Ceil(math.Sqrt(64 * math.Log(64) / (0.25 * 20))))
	if p.x != wantX {
		t.Fatalf("x %d want %d", p.x, wantX)
	}
	if want := int(math.Ceil(DefaultC * 20 * math.Log(64))); p.walkLen != want {
		t.Fatalf("walk length %d want c·tmix·ln n = %d under the default c", p.walkLen, want)
	}
	if p.capSize < 2 || p.capSize > 64 {
		t.Fatalf("capSize %d out of [2, n]", p.capSize)
	}
	if p.total <= p.bcastLen+p.walkLen+p.ccLen {
		t.Fatalf("total %d too small", p.total)
	}
}

func TestIREResolveOverrides(t *testing.T) {
	p, err := resolveIRE(ProtoConfig{N: 64, TMix: 20, Phi: 0.25, C: 1, X: 7})
	if err != nil {
		t.Fatal(err)
	}
	if want := int(math.Ceil(20 * math.Log(64))); p.walkLen != want || p.x != 7 {
		t.Fatalf("overrides ignored: %+v", p)
	}
}

func TestIREXFactorScales(t *testing.T) {
	base, _ := resolveIRE(ProtoConfig{N: 128, TMix: 40, Phi: 0.2})
	doubled, _ := resolveIRE(ProtoConfig{N: 128, TMix: 40, Phi: 0.2, XFactor: 2})
	if doubled.x < 2*base.x-1 || doubled.x > 2*base.x+1 {
		t.Fatalf("XFactor=2 gave x=%d (base %d)", doubled.x, base.x)
	}
}

func TestIREBroadcastOnlySchedule(t *testing.T) {
	p, err := resolveIRE(ProtoConfig{N: 32, TMix: 10, Phi: 0.3, BroadcastOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if !p.broadcastOnly {
		t.Fatal("flag lost")
	}
	if p.total != p.bcastLen+2 {
		t.Fatalf("broadcast-only total %d want %d", p.total, p.bcastLen+2)
	}
}

func TestExplicitConfigValidation(t *testing.T) {
	if !rejects("explicit", ProtoConfig{N: 1, TMix: 1, Phi: 0.5}) {
		t.Fatal("invalid inner config accepted")
	}
}

func TestRevocableConfigValidation(t *testing.T) {
	if rejects("revocable", ProtoConfig{}) {
		t.Fatal("zero config rejected")
	}
	bad := []ProtoConfig{
		{Epsilon: -0.5},
		{Epsilon: 1.5},
		{Iso: -1},
		{FMult: -1},
		{RMult: -0.5},
	}
	for i, cfg := range bad {
		if !rejects("revocable", cfg) {
			t.Fatalf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRevocableScheduleFunctions(t *testing.T) {
	p, err := resolveRevocable(ProtoConfig{Epsilon: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// f, r, dissemination lengths grow with k.
	prevF, prevR, prevD := 0, 0, 0
	for k := uint64(2); k <= 64; k *= 2 {
		f, r, d := p.fOf(k), p.rOf(k), p.dissOf(k)
		if f <= prevF || r <= prevR || d <= prevD {
			t.Fatalf("schedule not increasing at k=%d: f=%d r=%d d=%d", k, f, r, d)
		}
		prevF, prevR, prevD = f, r, d
		// τ(k) in (0, 1); p(k) in (0, 1).
		if tau := p.tauOf(k); tau <= 0 || tau >= 1 {
			t.Fatalf("tau(%d) = %v", k, tau)
		}
		if pw := p.pOf(k); pw <= 0 || pw >= 1 {
			t.Fatalf("p(%d) = %v", k, pw)
		}
		// ID range must cover k^{4(1+ε)}.
		if got := p.idRangeOf(k); float64(got) < math.Pow(float64(k), 4*1.5) {
			t.Fatalf("idRange(%d) = %d below k^6", k, got)
		}
	}
}

func TestRevocableKnownIsoShortensDiffusion(t *testing.T) {
	blind, _ := resolveRevocable(ProtoConfig{Epsilon: 0.5})
	iso, _ := resolveRevocable(ProtoConfig{Epsilon: 0.5, Iso: 2})
	for k := uint64(4); k <= 32; k *= 2 {
		if iso.rOf(k) >= blind.rOf(k) {
			t.Fatalf("known-iso r(%d)=%d not shorter than blind %d", k, iso.rOf(k), blind.rOf(k))
		}
	}
}

func TestRevocableCalibrationMultipliers(t *testing.T) {
	full, _ := resolveRevocable(ProtoConfig{Epsilon: 0.5})
	scaled, _ := resolveRevocable(ProtoConfig{Epsilon: 0.5, FMult: 0.5, RMult: 0.1})
	k := uint64(16)
	if scaled.fOf(k) > full.fOf(k)/2+1 {
		t.Fatalf("FMult not applied: %d vs %d", scaled.fOf(k), full.fOf(k))
	}
	if scaled.rOf(k) > full.rOf(k)/5 {
		t.Fatalf("RMult not applied: %d vs %d", scaled.rOf(k), full.rOf(k))
	}
}

func TestChanOfAvoidsWalkChannel(t *testing.T) {
	if chanOf(uint64(walkChannel)) == walkChannel {
		t.Fatal("chanOf collided with the walk channel")
	}
	if chanOf(7) != 7 {
		t.Fatalf("chanOf(7) = %d", chanOf(7))
	}
}
