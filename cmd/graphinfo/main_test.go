package main

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGraphinfoPrintsAlignedProfile builds the binary and pins its whole
// output on a closed-form cell: the family line, then the profile's aligned
// block — which is Profile.String on a value, the receiver the public
// alias needs for fmt to find it.
func TestGraphinfoPrintsAlignedProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the binary")
	}
	bin := filepath.Join(t.TempDir(), "graphinfo")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-graph", "cycle", "-n", "16").CombinedOutput()
	if err != nil {
		t.Fatalf("graphinfo: %v\n%s", err, out)
	}
	const want = `family=cycle
n=16 m=16 diameter=8 degree=[2,2]
lambda2=0.961940 gap=0.038060
tmix=37 (exact)
conductance=0.125000 isoperimetric=0.250000 (exact)
`
	if string(out) != want {
		t.Fatalf("graphinfo output:\n%s\nwant:\n%s", out, want)
	}
}
