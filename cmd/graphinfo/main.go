// Command graphinfo prints the structural profile of a topology family
// instance: size, diameter, degree range, spectral gap, mixing time,
// conductance and isoperimetric number — the quantities the paper's
// protocols are parameterized by.
//
// The profile comes from the public anonlead API (NewNetwork +
// Network.Profile), so -profile selects the same exact/estimate/auto
// regimes library users get: exact inverts dense matrices and is limited
// to small n, estimate streams random walks and sweep cuts and scales to
// hundreds of thousands of nodes.
//
// Usage:
//
//	graphinfo -graph cycle -n 64
//	graphinfo -graph expander -n 256 -seed 7
//	graphinfo -graph expander -n 100000 -profile estimate
package main

import (
	"flag"
	"fmt"
	"os"

	"anonlead"
	"anonlead/internal/graph"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "graphinfo:", err)
		os.Exit(1)
	}
}

func run() error {
	family := flag.String("graph", "cycle", "topology family: "+graph.FamilyHelp())
	n := flag.Int("n", 32, "number of nodes")
	seed := flag.Uint64("seed", 1, "seed for random families")
	profile := flag.String("profile", "auto", "profile regime: exact, estimate, or auto (exact up to n=256)")
	flag.Parse()

	mode, err := anonlead.ParseProfileMode(*profile)
	if err != nil {
		return err
	}
	nw, err := anonlead.NewNetwork(*family, *n, *seed)
	if err != nil {
		return err
	}
	prof, err := nw.Profile(mode)
	if err != nil {
		return err
	}
	fmt.Printf("family=%s\n%s\n", *family, prof)
	return nil
}
