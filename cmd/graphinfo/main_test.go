package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGraphinfoPrintsAlignedProfile builds the binary and pins its whole
// output on closed-form cells: the family line, then the profile's aligned
// block — which is Profile.String on a value, the receiver the public
// alias needs for fmt to find it. Each number names the method behind it:
// above n = 256 the exact regime prints the spectral t_mix bound and a
// sweep cut, not an exact value.
func TestGraphinfoPrintsAlignedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "graphinfo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "cycle", "-n", "16"}, `family=cycle
n=16 m=16 diameter=8 degree=[2,2]
lambda2=0.961940 gap=0.038060
tmix=37 (exact)
conductance=0.125000 isoperimetric=0.250000 (exact)
`},
		{[]string{"-graph", "cycle", "-n", "300", "-profile", "exact"}, `family=cycle
n=300 m=300 diameter=150 degree=[2,2]
lambda2=0.999890 gap=0.000110
tmix=116181 (spectral bound)
conductance=0.006667 isoperimetric=0.013333 (sweep cut)
`},
	} {
		out, err := exec.Command(bin, c.args...).CombinedOutput()
		if err != nil {
			t.Fatalf("graphinfo %v: %v\n%s", c.args, err, out)
		}
		if string(out) != c.want {
			t.Errorf("graphinfo %v output:\n%s\nwant:\n%s", c.args, out, c.want)
		}
	}
}
