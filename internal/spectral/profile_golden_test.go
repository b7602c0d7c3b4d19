package spectral

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"anonlead/internal/graph"
	"anonlead/internal/rng"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/profiles.golden from the code under test")

const goldenPath = "testdata/profiles.golden"

// goldenSizes crosses ExactCutLimit (20|21) and every residue of the
// four-row block of mulInto; 256 is added for the families the gate
// sweep profiles at the exact-regime limit.
var goldenSizes = []int{2, 3, 4, 5, 8, 9, 16, 17, 20, 21, 32, 33, 64, 65, 96, 128, 129}

var goldenAt256 = map[string]bool{"expander": true, "hypercube": true, "cycle": true, "diam2": true}

// goldenFamilies names every canonical graph family: a key of the golden
// file whose family is missing here falls outside the corpus.
var goldenFamilies = []string{"cycle", "path", "complete", "star", "grid", "torus", "hypercube", "tree",
	"barbell", "lollipop", "regular", "regular3", "regular6", "expander", "gnp", "diam2"}

// goldenCase is one corpus entry: a family member profiled by one regime's
// algorithm called directly, whatever its size, so the file pins both
// algorithms where they overlap.
type goldenCase struct {
	family   string
	n        int
	seed     uint64
	estimate bool
}

func (c goldenCase) key() string {
	regime := "exact"
	if c.estimate {
		regime = "estimate"
	}
	return fmt.Sprintf("%s %d %d %s", c.family, c.n, c.seed, regime)
}

// goldenLarge are the families also pinned in the estimate regime at the
// sizes only that regime serves.
var goldenLarge = map[string]bool{"expander": true, "cycle": true, "torus": true, "regular3": true}

// goldenCases lists the corpus family by family: the size ladder × seeds 1
// and 7 × both regimes, then n = 1000 and 5000 for goldenLarge.
func goldenCases(short bool) []goldenCase {
	var cases []goldenCase
	for _, family := range goldenFamilies {
		sizes := goldenSizes
		if goldenAt256[family] {
			sizes = append(sizes[:len(sizes):len(sizes)], 256)
		}
		for _, n := range sizes {
			if short && n > 64 {
				continue
			}
			for _, seed := range []uint64{1, 7} {
				cases = append(cases,
					goldenCase{family, n, seed, false},
					goldenCase{family, n, seed, true})
			}
		}
		if goldenLarge[family] && !short {
			cases = append(cases,
				goldenCase{family, 1000, 1, true},
				goldenCase{family, 5000, 1, true})
		}
	}
	return cases
}

// goldenProfiler renders corpus lines, remembering the last exact profile:
// the exact regime ignores the seed, so on a family whose graph does not
// depend on it either, seed 7's line is seed 1's and is not recomputed.
type goldenProfiler struct {
	g    *graph.Graph
	line string
}

// profile profiles one case the way NewNetwork does (same graph seed chain)
// and renders every computed field, floats as their IEEE bits, so equality
// of lines is equality down to math.Float64bits. The second result is
// false for a size the family does not accept.
func (m *goldenProfiler) profile(c goldenCase) (string, bool) {
	g, err := graph.ByName(c.family, c.n, rng.New(c.seed).SplitString("graph:"+c.family))
	if err != nil {
		return "", false
	}
	if !c.estimate && m.g != nil && samePorts(g, m.g) {
		return m.line, true
	}
	var p *Profile
	if c.estimate {
		p = estimateProfile(g, c.seed)
	} else {
		p = exactProfile(g)
	}
	// The fifth column says whether tmix is exact: !Estimated.
	line := fmt.Sprintf("%d %d %016x %d %t %t %016x %016x",
		p.N, p.Diameter, math.Float64bits(p.Lambda2), p.MixingTime, !p.Estimated, p.MixingCapped,
		math.Float64bits(p.Conductance), math.Float64bits(p.Isoperimetric))
	if !c.estimate {
		m.g, m.line = g, line
	}
	return line, true
}

// samePorts reports whether a and b are the same port-labelled graph.
func samePorts(a, b *graph.Graph) bool {
	if a.N() != b.N() {
		return false
	}
	for v := 0; v < a.N(); v++ {
		if !slices.Equal(a.Adj(v), b.Adj(v)) {
			return false
		}
	}
	return true
}

// TestProfileGolden pins every profile field, bit for bit, to the values
// the parent of the kernel rewrite (PR 18) computed: the file was
// generated by that parent's code and no later change may move it. A
// deliberate change of the arithmetic regenerates it with
// `go test ./internal/spectral -run TestProfileGolden -update` and says
// so in CHANGES.md. -short keeps n <= 64. Families check in parallel.
func TestProfileGolden(t *testing.T) {
	cases := goldenCases(testing.Short() && !*updateGolden)
	if *updateGolden {
		var b strings.Builder
		var m goldenProfiler
		for _, c := range cases {
			if line, ok := m.profile(c); ok {
				fmt.Fprintf(&b, "%s | %s\n", c.key(), line)
			}
		}
		if err := os.WriteFile(goldenPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		key, val, ok := strings.Cut(line, " | ")
		if !ok {
			t.Fatalf("malformed golden line %q", line)
		}
		want[key] = val
	}
	if !testing.Short() {
		known := map[string]bool{}
		for _, c := range cases {
			known[c.key()] = true
		}
		for key := range want {
			if !known[key] {
				t.Errorf("%s: in %s but not in the corpus (regenerate with -update)", key, goldenPath)
			}
		}
	}
	for start, end := 0, 0; start < len(cases); start = end {
		for end < len(cases) && cases[end].family == cases[start].family {
			end++
		}
		group := cases[start:end]
		t.Run(group[0].family, func(t *testing.T) {
			t.Parallel()
			var m goldenProfiler
			for _, c := range group {
				got, ok := m.profile(c)
				if !ok {
					continue
				}
				if w, found := want[c.key()]; !found {
					t.Errorf("%s: not in %s (regenerate with -update)", c.key(), goldenPath)
				} else if got != w {
					t.Errorf("%s:\n  got  %s\n  want %s", c.key(), got, w)
				}
			}
		})
	}
}
