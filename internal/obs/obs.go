// Package obs is the run-telemetry subsystem: one wall-clock record, the
// span log, with two outputs (Chrome trace-event JSON and per-phase
// totals), plus deterministic per-round message/halt profiles for
// artifact cells.
//
// Spans are gated on one process-wide switch: until Enable is called every
// Span returns a shared no-op closure, so the simulator's 0-alloc round
// path and the byte-identity of committed artifacts are untouched by
// merely linking this package. Spans are a wall-clock side channel and
// never enter artifacts; the one deterministic product — the per-cell
// RoundProfile — is integer-only and scheduler-independent, and is opt-in
// per trial.
//
// Dataflow: harness/sweep call sites wrap phases in Span() → the span log
// → WriteChromeTraceFile (lebench -trace-out) → ReadChromeTraceFile →
// PhaseStats (lereport -phases); the sim Observer hook feeds RoundProfile
// buckets → the harness merges them per cell and (optionally) embeds them
// in the artifact. See docs/ARCHITECTURE.md "Observability".
package obs

import "sync/atomic"

// enabled is the process-wide master switch. Span consults it so that a
// disabled process pays one atomic load and zero allocations per call
// site.
var enabled atomic.Bool

// Enable turns telemetry recording on process-wide.
func Enable() { enabled.Store(true) }

// Disable turns telemetry recording off and is the default state.
func Disable() { enabled.Store(false) }

// Enabled reports whether telemetry recording is on. Call sites with
// non-trivial setup cost (formatting a span's detail) should gate on it.
func Enabled() bool { return enabled.Load() }
