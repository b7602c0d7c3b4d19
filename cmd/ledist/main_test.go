package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"anonlead"
	"anonlead/internal/sim"
	"anonlead/internal/transport"
)

// TestLedistMatchesSimulator builds the binary and runs real multi-process
// elections: every node its own OS process over localhost TCP. Each must
// exit 0 and record match: true — same rounds, CONGEST charge, messages,
// bits, leader count and leader as the simulator replay of the same seed —
// and label the artifact with
// the size of the graph built and its slot budget, not the requested -n
// (the hypercube rounds 20 down to 16).
func TestLedistMatchesSimulator(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns node processes")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "ledist")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		proto, graph string
		n, built     int
	}{
		{"floodmax", "cycle", 8, 8},
		{"walknotify", "expander", 8, 8},
		{"ire", "hypercube", 20, 16},
	} {
		t.Run(tc.proto, func(t *testing.T) {
			path := filepath.Join(dir, tc.proto+".json")
			out, err := exec.Command(bin, "-proto", tc.proto, "-graph", tc.graph, "-n", strconv.Itoa(tc.n),
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
			if art.N != tc.built || art.CongestBits != sim.DefaultCongestBits(tc.built) {
				t.Fatalf("artifact labels n=%d congest_bits=%d, want the built graph's %d and %d",
					art.N, art.CongestBits, tc.built, sim.DefaultCongestBits(tc.built))
			}
			if art.Dist.Rounds == 0 || len(art.Dist.RoundSeconds) != art.Dist.Rounds {
				t.Fatalf("%d round stamps for %d rounds", len(art.Dist.RoundSeconds), art.Dist.Rounds)
			}
		})
	}
}

// validPlan is a plan the coordinator could ship for a 4-node cycle.
func validPlan() planMsg {
	return planMsg{Family: "cycle", N: 4, Seed: 1, Proto: "floodmax",
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3", "127.0.0.1:4"}}
}

// TestPlanValidate: a plan frame that would make a node panic — index a
// missing peer or step a node outside the graph — is refused with an error
// naming the fault.
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
	f.Add([]byte(`{"family":"cycle","n":4,"peers":["a","b","c","d"]}`), 1)
	f.Add([]byte(`{"n":3,"peers":["a"]}`), 2)
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

// TestDecodeOutcome: an outcome frame body decodes only if it is JSON and
// names the node whose connection carried it; the error says which.
func TestDecodeOutcome(t *testing.T) {
	for _, tc := range []struct {
		name string
		body string
		node int
		want string
	}{
		{"leader", `{"node":3,"leader":true,"id":42}`, 3, ""},
		{"not leader", `{"node":0,"leader":false,"id":0}`, 0, ""},
		{"other node", `{"node":2,"leader":true,"id":42}`, 3, "names node 2"},
		{"truncated", `{"node":3,"leader":tr`, 3, "outcome: "},
		{"empty", ``, 3, "outcome: "},
		{"wrong type", `{"node":"3"}`, 3, "outcome: "},
		{"not an object", `[]`, 3, "outcome: "},
	} {
		o, err := decodeOutcome([]byte(tc.body), tc.node)
		if tc.want == "" {
			if err != nil || o.Node != tc.node {
				t.Errorf("%s: got %+v err %v", tc.name, o, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// FuzzDecodeOutcome: arbitrary outcome bodies decode to an error or to an
// outcome that names its sender, never a panic.
func FuzzDecodeOutcome(f *testing.F) {
	f.Add([]byte(`{"node":3,"leader":true,"id":42}`), 3)
	f.Add([]byte(`{"node":2,"leader":true,"id":42}`), 3)
	f.Add([]byte(`{"node":0}`), 0)
	f.Add([]byte(`null`), 0)
	f.Add([]byte(`{"node":1,"leader":tr`), 1)
	f.Fuzz(func(t *testing.T, body []byte, node int) {
		o, err := decodeOutcome(body, node)
		if err == nil && o.Node != node {
			t.Fatalf("outcome %+v accepted from node %d", o, node)
		}
	})
}

// TestRunResMatches: match is every cost and outcome field, so any one of
// them differing alone is a mismatch, and the wall-clock fields are not
// compared.
func TestRunResMatches(t *testing.T) {
	base := runRes{Rounds: 12, ChargedRounds: 14, Messages: 96, Bits: 480, Leaders: 1, LeaderID: 7}
	timed := base
	timed.ElapsedSeconds, timed.ConnectSeconds, timed.SecondsPerRound, timed.RoundSeconds = 1, 2, 3, []float64{4}
	if !base.matches(timed) {
		t.Fatal("runs differing only in wall-clock fields do not match")
	}
	for _, tc := range []struct {
		field string
		edit  func(*runRes)
	}{
		{"rounds", func(r *runRes) { r.Rounds++ }},
		{"charged_rounds", func(r *runRes) { r.ChargedRounds++ }},
		{"messages", func(r *runRes) { r.Messages++ }},
		{"bits", func(r *runRes) { r.Bits++ }},
		{"leaders", func(r *runRes) { r.Leaders++ }},
		{"leader_id", func(r *runRes) { r.LeaderID++ }},
	} {
		other := base
		tc.edit(&other)
		if base.matches(other) || other.matches(base) {
			t.Errorf("runs differing only in %s match", tc.field)
		}
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

// TestCheckFlagsRefusesUnboundedRuns: a run over maxNodes processes, or
// under a deadline that has already passed, is refused with a named error
// before anything is spawned. Only the pure check runs here.
func TestCheckFlagsRefusesUnboundedRuns(t *testing.T) {
	for _, tc := range []struct {
		n       int
		timeout time.Duration
		want    error
	}{
		{maxNodes, time.Minute, nil},
		{maxNodes + 1, time.Minute, errTooMany},
		{8, 0, errDeadline},
		{8, -time.Second, errDeadline},
	} {
		if err := checkFlags(tc.n, tc.timeout); !errors.Is(err, tc.want) {
			t.Errorf("checkFlags(%d, %v) = %v, want %v", tc.n, tc.timeout, err, tc.want)
		}
	}
}

// startLink is a coordinator connection that always delivers one frame.
type startLink struct {
	transport.Link
	f transport.Frame
}

func (l startLink) ReadFrame() (transport.Frame, error) { return l.f, nil }

// TestWaitStartRefusesBadCount: a start frame's body is exactly one
// uvarint, the count of frames the node is owed. An empty, truncated or
// over-long body is refused with errBadStart, never a panic or a guess.
func TestWaitStartRefusesBadCount(t *testing.T) {
	for _, tc := range []struct {
		name string
		body []byte
		want string
	}{
		{"valid", []byte{0x96, 0x01}, ""},
		{"empty", nil, "empty body"},
		{"truncated", []byte{0x80}, "truncated count"},
		{"over-long varint", bytes.Repeat([]byte{0xff}, 11), "over-long count"},
		{"trailing byte", []byte{5, 0}, "over-long count"},
	} {
		rc := &remoteControl{link: startLink{f: transport.Frame{Type: transport.FrameStart, Round: 7, Body: tc.body}}}
		round, expect, stop, err := rc.WaitStart()
		if tc.want == "" {
			if err != nil || round != 7 || expect != 150 || stop {
				t.Errorf("%s: got round %d expect %d stop %v err %v", tc.name, round, expect, stop, err)
			}
			continue
		}
		if !errors.Is(err, errBadStart) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want errBadStart naming %q", tc.name, err, tc.want)
		}
	}
}

// TestHandshakeNamesUnexpectedFrame: the coordinator's join read and the
// node's plan read refuse a frame of another type with an error naming
// both types, never a nil error printed as "<nil>".
func TestHandshakeNamesUnexpectedFrame(t *testing.T) {
	for _, want := range []transport.FrameType{transport.FrameJoin, transport.FramePlan} {
		_, err := readFrameOf(startLink{f: transport.Frame{Type: transport.FrameData}}, want)
		if msg := "unexpected data frame (want " + want.String() + ")"; err == nil || err.Error() != msg {
			t.Errorf("data frame where %v is expected: err %v, want %q", want, err, msg)
		}
		f, err := readFrameOf(startLink{f: transport.Frame{Type: want, Body: []byte("x")}}, want)
		if err != nil || string(f.Body) != "x" {
			t.Errorf("%v frame where %v is expected: %+v, %v", want, want, f, err)
		}
	}
}
