package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// ArtifactSchema identifies the BENCH_harness.json format version. Bump it
// when the cell layout — Cell's JSON encoding, which TestCellJSONShape
// pins — changes, so trajectory tooling can tell formats apart.
//
// v6 added a repeated-election cell's scenario descriptor, part of its
// identity, and its epochs aggregates; single-election cells omit both.
//
// v7 keeps only what the sweep measured, each fact once, so a file is a
// pure function of (plan, root seed) and any pool size writes the same
// bytes. The header loses the pool size (workers and shards) and the wall
// clock (elapsed seconds and trials per second): how the sweep ran, not
// what it measured, and lebench prints them to stderr instead. A cell
// loses its profile regime, which its n picks, and its success rate with
// the rate's Wilson interval, which successes and trials give. Its epochs
// object loses the epoch count, fault mode, carry flag and trial count,
// which the scenario descriptor and the cell's trials already say.
const ArtifactSchema = "anonlead/bench-harness/v7"

// Artifact is the BENCH_harness.json payload: one orchestrated sweep in a
// machine-readable shape, emitted so CI can archive per-PR results and a
// trajectory tool can diff the cells across PRs. Every field is a function
// of the plan and root seed: no pool size and no wall clock.
type Artifact struct {
	Schema   string `json:"schema"`
	RootSeed uint64 `json:"root_seed"`
	Cells    []Cell `json:"cells"`
}

// NewArtifact stamps a sweep's cells with the schema and the specs' root
// seed. The Orchestrator and the duration are ignored; they remain only so
// existing callers compile.
func NewArtifact(_ Orchestrator, specs []CellSpec, cells []Cell, _ time.Duration) Artifact {
	a := Artifact{Schema: ArtifactSchema, Cells: cells}
	if cells == nil {
		a.Cells = []Cell{} // a sweep of no cells encodes [], not null
	}
	if len(specs) > 0 {
		a.RootSeed = specs[0].Opts.Seed
	}
	return a
}

// JSON renders the artifact with stable field order, two-space indentation,
// and a trailing newline.
func (a Artifact) JSON() ([]byte, error) {
	buf, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("harness: marshal artifact: %w", err)
	}
	return append(buf, '\n'), nil
}

// WriteFile writes the artifact to path (conventionally BENCH_harness.json).
func (a Artifact) WriteFile(path string) error {
	buf, err := a.JSON()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return fmt.Errorf("harness: write artifact: %w", err)
	}
	return nil
}

// ReadArtifact decodes a bench artifact of the current schema. Any other
// schema is rejected by name, and so is a cell without its four
// distribution objects, so trajectory tooling fails loudly on foreign or
// truncated files rather than comparing garbage. Each distribution gets
// back the size and mean the file keeps once, as the cell's trials and
// flat mean, so a decoded cell equals the one the sweep reduced.
func ReadArtifact(buf []byte) (Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(buf, &a); err != nil {
		return Artifact{}, fmt.Errorf("harness: decode artifact: %w", err)
	}
	if a.Schema != ArtifactSchema {
		return Artifact{}, fmt.Errorf("harness: unknown artifact schema %q (want %s)", a.Schema, ArtifactSchema)
	}
	for i := range a.Cells {
		c := &a.Cells[i]
		if c.MessagesDist == nil || c.BitsDist == nil || c.RoundsDist == nil || c.ChargedDist == nil {
			return Artifact{}, fmt.Errorf("harness: decode artifact: cell %d (%s on %s/%d) lacks its distribution objects",
				i, c.Protocol, c.Family, c.N)
		}
		c.MessagesDist.N, c.MessagesDist.Mean = c.Trials, c.Messages
		c.BitsDist.N, c.BitsDist.Mean = c.Trials, c.Bits
		c.RoundsDist.N, c.RoundsDist.Mean = c.Trials, c.Rounds
		c.ChargedDist.N, c.ChargedDist.Mean = c.Trials, c.Charged
	}
	return a, nil
}

// ReadArtifactFile reads and decodes a bench artifact from disk.
func ReadArtifactFile(path string) (Artifact, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return Artifact{}, fmt.Errorf("harness: read artifact: %w", err)
	}
	a, err := ReadArtifact(buf)
	if err != nil {
		return Artifact{}, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}
