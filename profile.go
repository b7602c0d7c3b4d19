package anonlead

import (
	"fmt"

	"anonlead/internal/spectral"
)

// ProfileMode selects how a network's structural profile (diameter, λ₂,
// mixing time, conductance) is computed. The zero value is ProfileAuto.
// String returns the canonical name ("auto", "exact", "estimate") — the
// same strings CLI flags accept and bench artifact descriptors record.
type ProfileMode = spectral.Mode

const (
	// ProfileAuto picks the exact regime for small networks (n ≤ 256) and
	// the streaming estimate regime above, where the exact algorithms'
	// dense matrices and all-pairs traversals stop being tractable. This
	// is the default for Run.
	ProfileAuto = spectral.ModeAuto
	// ProfileExact forces the legacy exact regime: exact diameter, dense
	// matrix-powered mixing time (up to n = 256, spectral bound above),
	// enumerated cuts at tiny n. Byte-identical to every profile computed
	// before modes existed.
	ProfileExact = spectral.ModeExact
	// ProfileEstimate forces the streaming regime: double-sweep diameter
	// lower bound, budgeted power iteration, sampled-walk mixing time and
	// sweep cuts. Never materializes an n×n matrix — every pass is O(m) —
	// so it scales to millions of nodes.
	ProfileEstimate = spectral.ModeEstimate
)

// ParseProfileMode parses a canonical mode name ("" parses as auto, the
// convention bench artifacts use for the default regime).
func ParseProfileMode(s string) (ProfileMode, error) {
	m, err := spectral.ParseMode(s)
	if err != nil {
		return ProfileAuto, fmt.Errorf("anonlead: %w", err)
	}
	return m, nil
}

// Profile is the structural profile of a network: the quantities the
// paper's protocols are parameterized by (diameter, mixing time,
// conductance, isoperimetric number), plus the regime flags saying how
// each one was obtained. String renders the aligned block the CLIs print.
type Profile = spectral.Profile

// Profile returns the network's structural profile under the given mode,
// computing it on first use and caching per resolved regime (auto shares
// the cache entry of whatever regime it resolves to). It is the one way to
// read the profile a Run under the same WithProfileMode was parameterized
// by. Concurrent callers are safe; repeated calls are free.
func (nw *Network) Profile(mode ProfileMode) (Profile, error) {
	p, err := nw.profileMode(mode)
	if err != nil {
		return Profile{}, err
	}
	return *p, nil
}
