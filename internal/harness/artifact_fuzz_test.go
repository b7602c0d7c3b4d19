package harness

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzReadArtifact hardens the artifact reader against arbitrary
// input: malformed bytes must come back as errors (never panics), and any
// accepted artifact must carry a known schema and normalize to a JSON
// encoding that is a fixed point of another decode/encode pass — the
// byte-stability every golden test leans on.
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
	// A file with header fields older binaries wrote (the pool size, and
	// the `plan` coverage of partial artifacts): unknown fields, so it
	// reads as a plain artifact.
	oldPartial := []byte(`{"schema":"anonlead/bench-harness/v7","root_seed":7,"workers":2,"shards":2,"plan":{"total":4,"indices":[1,3]},"cells":[` +
		`{"protocol":"ire","family":"expander","n":16,"trials":2,"successes":2,"messages_dist":{"stddev":1,"min":1,"max":3,"p50":2,"p90":3,"p99":3},"bits_dist":{},"rounds_dist":{},"charged_dist":{}},` +
		`{"protocol":"flood","family":"cycle","n":8,"trials":2,"successes":1,"messages_dist":{},"bits_dist":{},"rounds_dist":{},"charged_dist":{}}]}`)
	if a, err := ReadArtifact(oldPartial); err != nil || len(a.Cells) != 2 {
		f.Fatalf("old partial artifact: err %v, %d cells; want a plain 2-cell artifact", err, len(a.Cells))
	}
	f.Add(oldPartial)
	// The previous schema, refused by name.
	v6 := []byte(`{"schema":"anonlead/bench-harness/v6","root_seed":1,"cells":[]}`)
	if _, err := ReadArtifact(v6); err == nil || !strings.Contains(err.Error(), `"anonlead/bench-harness/v6"`) {
		f.Fatalf("v6 artifact: err %v; want a refusal naming the schema", err)
	}
	f.Add(v6)
	// A cell without its distributions, schema-less JSON, a foreign
	// schema, truncations.
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v7","root_seed":1,"cells":[{"protocol":"ire","family":"cycle","n":8,"messages":12}]}`))
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v9"}`))
	f.Add([]byte(`{"cells":[]}`))
	f.Add([]byte(`{"schema":`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"schema":"anonlead/bench-harness/v7","cells":[{"messages_dist":{},"bits_dist":{},"rounds_dist":{},"charged_dist":{},"epochs":{"per_epoch_messages":[1e308,1e308]}}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := ReadArtifact(data)
		if err != nil {
			return // rejected input: an error is the contract, a panic is the bug
		}
		if a.Schema != ArtifactSchema {
			t.Fatalf("accepted artifact with unknown schema %q", a.Schema)
		}
		for i, c := range a.Cells {
			if c.MessagesDist == nil || c.BitsDist == nil || c.RoundsDist == nil || c.ChargedDist == nil {
				t.Fatalf("accepted cell %d without its distributions", i)
			}
		}

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
