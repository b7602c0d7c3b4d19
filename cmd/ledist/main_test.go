package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"anonlead"
)

// TestLedistMatchesSimulator builds the binary and runs real multi-process
// elections: every node its own OS process over localhost TCP. Each must
// exit 0 and record match: true — same leader, rounds and CONGEST charge
// as the simulator replay of the same seed.
func TestLedistMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ledist")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct{ proto, graph string }{
		{"floodmax", "cycle"},
		{"walknotify", "expander"},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			path := filepath.Join(dir, tc.proto+".json")
			out, err := exec.Command(bin, "-proto", tc.proto, "-graph", tc.graph, "-n", "8",
				"-timeout", "1m", "-out", path).CombinedOutput()
			if err != nil {
				t.Fatalf("ledist: %v\n%s", err, out)
			}
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var art artifact
			if err := json.Unmarshal(buf, &art); err != nil {
				t.Fatal(err)
			}
			if art.Match == nil || !*art.Match {
				t.Fatalf("artifact does not record match: true\n%s", buf)
			}
			if art.Dist.Rounds == 0 || len(art.Dist.RoundSeconds) != art.Dist.Rounds {
				t.Fatalf("%d round stamps for %d rounds", len(art.Dist.RoundSeconds), art.Dist.Rounds)
			}
		})
	}
}

// validPlan is a plan the coordinator could ship for a 4-node cycle.
func validPlan() planMsg {
	return planMsg{Family: "cycle", N: 4, Seed: 1, Proto: "floodmax", CongestBits: 16,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}}
}

// TestPlanValidate: a plan frame that would make a node panic — index a
// missing peer, meter against a non-positive slot budget, or step a node
// outside the graph — is refused with an error naming the fault.
func TestPlanValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		edit func(*planMsg)
		node int
		want string
	}{
		{"valid", func(*planMsg) {}, 3, ""},
		{"short peers", func(p *planMsg) { p.Peers = p.Peers[:3] }, 0, "3 peer addresses for 4 nodes"},
		{"no peers", func(p *planMsg) { p.Peers = nil }, 0, "0 peer addresses for 4 nodes"},
		{"zero budget", func(p *planMsg) { p.CongestBits = 0 }, 0, "congest_bits 0"},
		{"negative budget", func(p *planMsg) { p.CongestBits = -8 }, 0, "congest_bits -8"},
		{"node past n", func(*planMsg) {}, 4, "node 4 outside the 4-node graph"},
		{"negative node", func(*planMsg) {}, -1, "node -1 outside"},
		{"empty graph", func(p *planMsg) { p.N, p.Peers = 0, nil }, 0, "node 0 outside the 0-node graph"},
	} {
		p := validPlan()
		tc.edit(&p)
		err := p.validate(tc.node)
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodePlan: arbitrary plan frame bodies decode to an error or to a
// plan that validates, never a panic, and a valid plan re-marshals to an
// equal plan.
func FuzzDecodePlan(f *testing.F) {
	valid, err := json.Marshal(validPlan())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, 0)
	f.Add(valid, 4)
	f.Add([]byte(`{"family":"cycle","n":4,"congest_bits":0,"peers":["a","b","c","d"]}`), 1)
	f.Add([]byte(`{"n":3,"congest_bits":8,"peers":["a"]}`), 2)
	f.Add([]byte(`[]`), 0)
	f.Fuzz(func(t *testing.T, body []byte, node int) {
		p, err := decodePlan(body, node)
		if err != nil {
			return
		}
		buf, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("valid plan does not marshal: %v", err)
		}
		q, err := decodePlan(buf, node)
		if err != nil || !reflect.DeepEqual(p, q) {
			t.Fatalf("plan %+v re-decodes as %+v (err %v)", p, q, err)
		}
	})
}

// TestCoordinatorShipsRunSeedProfile pins the config the coordinator ships
// to its node processes (no process is spawned): above 256 nodes the
// profile is a seeded estimate, and it must be the one NewNetwork computes
// for the run seed — the t_mix and Φ leaderelect and Run elect on. On
// expander/400 the seed-0 estimate a wrapped graph gets differs (t_mix 25
// against 28); on expander/300 the two happen to agree.
func TestCoordinatorShipsRunSeedProfile(t *testing.T) {
	for _, n := range []int{300, 400} {
		_, _, pc, err := resolveRun("ire", "expander", n, 5)
		if err != nil {
			t.Fatal(err)
		}
		nw, err := anonlead.NewNetwork("expander", n, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := nw.ProtoConfig("ire")
		if err != nil {
			t.Fatal(err)
		}
		if pc != want {
			t.Errorf("coordinator ships %+v, NewNetwork(expander, %d, 5) resolves %+v", pc, n, want)
		}
	}
}
