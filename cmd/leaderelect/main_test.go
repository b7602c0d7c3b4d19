package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"anonlead/internal/graph"
)

// TestLeaderelectFaultedBatch builds the binary and runs a small faulted
// batch through the public API: exit 0, the profile block graphinfo also
// prints (each number labelled with its method), the adversary's canonical
// descriptor on the faults line, per-trial means over the three trials.
// A batch of no trials, which used to print 0/0 and NaN means, is refused,
// and so are a NaN fault rate, a graph size the family cannot have and a
// negative presumed size or observe period, which used to run silently
// with the true size or no observer;
// -parallel and -scheduler are undefined flags, since every election runs
// on the sequential simulator; -h lists every family name and alias.
func TestLeaderelectFaultedBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "leaderelect")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-graph", "cycle", "-n", "16", "-proto", "floodmax",
		"-loss", "0.1", "-trials", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("leaderelect: %v\n%s", err, out)
	}
	for _, want := range []string{
		"family=cycle\nn=16 m=16 diameter=8 degree=[2,2]\n",
		"tmix=37 (exact)\nconductance=0.125000 isoperimetric=0.250000 (exact)\nprotocol: ",
		"protocol: floodmax trials=3\n",
		"faults:   loss=0.1 (dropped=",
		"/3 unique leader",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, args := range [][]string{{"-trials", "0"}, {"-loss", "NaN"}} {
		if out, err := exec.Command(bin, args...).CombinedOutput(); err == nil {
			t.Errorf("leaderelect %v exited 0:\n%s", args, out)
		}
	}
	for _, args := range [][]string{{"-parallel"}, {"-scheduler", "actors"}} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		if want := "flag provided but not defined: " + args[0] + "\n"; err == nil || !strings.HasPrefix(string(out), want) {
			t.Errorf("leaderelect %v: err %v, output %q; want a failure starting %q", args, err, out, want)
		}
	}
	// -h lists the family table's help line, which internal/graph's
	// TestByNameSmallSizes holds to every name and alias ByName accepts.
	if out, _ := exec.Command(bin, "-h").CombinedOutput(); !strings.Contains(string(out), "topology family: "+graph.FamilyHelp()+" (default") {
		t.Errorf("leaderelect -h does not list the family table (%s):\n%s", graph.FamilyHelp(), out)
	}
	// A size below the family's minimum is one line naming it, not the
	// constructor's panic with a goroutine dump.
	out, err = exec.Command(bin, "-graph", "cycle", "-n", "2").CombinedOutput()
	if want := "leaderelect: graph: cycle needs n>=3, got 2\n"; err == nil || string(out) != want {
		t.Errorf("leaderelect -graph cycle -n 2: err %v, output %q; want a failure printing %q", err, out, want)
	}
	for _, c := range []struct{ flag, value, want string }{
		{"-presumed", "-5", "leaderelect: -presumed must be >= 0 (0 = truth), got -5\n"},
		{"-observe", "-1", "leaderelect: -observe must be >= 0 (0 = off), got -1\n"},
	} {
		out, err = exec.Command(bin, c.flag, c.value).CombinedOutput()
		if err == nil || string(out) != c.want {
			t.Errorf("leaderelect %s %s: err %v, output %q; want a failure printing %q", c.flag, c.value, err, out, c.want)
		}
	}
}
