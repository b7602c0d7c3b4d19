package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
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
