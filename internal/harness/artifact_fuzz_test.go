package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadArtifact hardens the artifact reader (v6 and v5) against arbitrary
// input: malformed bytes must come back as errors (never panics), and any
// accepted artifact must carry a known schema and normalize to a JSON
// encoding that is a fixed point of another decode/encode pass — the
// byte-stability every golden test and the distributed-sweep cmp gate
// lean on.
func FuzzReadArtifact(f *testing.F) {
	// Real artifacts as seeds: the committed regression-gate baseline and
	// the harness golden (both current-schema, dists and all).
	for _, p := range []string{
		filepath.Join("..", "..", "testdata", "BENCH_baseline.json"),
		filepath.Join("testdata", "bench_harness_golden.json"),
	} {
		buf, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	// A partial artifact (a distributed-sweep worker's output) with its
	// plan coverage header.
	dist := &ArtifactDist{StdDev: 1, Min: 1, Max: 3, P50: 2, P90: 3, P99: 3}
	partial := Artifact{
		Schema: ArtifactSchemaV5, RootSeed: 7, Workers: 2, Shards: 2,
		Plan: &ArtifactPlan{Total: 4, Indices: []int{1, 3}},
		Cells: []ArtifactCell{
			{Protocol: "ire", Family: "expander", N: 16, Trials: 2, Successes: 2,
				MessagesDist: dist, BitsDist: dist, RoundsDist: dist, ChargedDist: dist},
			{Protocol: "flood", Family: "cycle", N: 8, Trials: 2, Successes: 1,
				MessagesDist: dist, BitsDist: dist, RoundsDist: dist, ChargedDist: dist},
		},
	}
	if buf, err := partial.JSON(); err != nil {
		f.Fatal(err)
	} else {
		f.Add(buf)
	}
	// A cell without its distributions, a dropped schema, schema-less JSON,
	// foreign schemas, truncations.
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v6","root_seed":1,"cells":[{"protocol":"ire","family":"cycle","n":8,"messages":12}]}`))
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v4","cells":[]}`))
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v9"}`))
	f.Add([]byte(`{"cells":[]}`))
	f.Add([]byte(`{"schema":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v6","cells":[{"messages_dist":{},"bits_dist":{},"rounds_dist":{},"charged_dist":{},"epochs":{"per_epoch_messages":[1e308,1e308]}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(data)
		if err != nil {
			return // rejected input: an error is the contract, a panic is the bug
		}
		if a.Schema != ArtifactSchema && a.Schema != ArtifactSchemaV5 {
			t.Fatalf("accepted artifact with unknown schema %q", a.Schema)
		}
		for i, c := range a.Cells {
			if c.MessagesDist == nil || c.BitsDist == nil || c.RoundsDist == nil || c.ChargedDist == nil {
				t.Fatalf("accepted cell %d without its distributions", i)
			}
		}
		_ = a.IsPartial() // must tolerate any decoded plan header

		// One decode normalizes (unknown fields drop, field order fixes);
		// after that, decode∘encode must be the identity on the bytes.
		norm, err := a.JSON()
		if err != nil {
			t.Fatalf("accepted artifact does not re-encode: %v", err)
		}
		b, err := ReadArtifact(norm)
		if err != nil {
			t.Fatalf("normalized artifact rejected on re-read: %v", err)
		}
		norm2, err := b.JSON()
		if err != nil {
			t.Fatalf("re-encode after re-read failed: %v", err)
		}
		if !bytes.Equal(norm, norm2) {
			t.Fatalf("artifact encoding is not a decode/encode fixed point:\n%s\nvs\n%s", norm, norm2)
		}
	})
}
