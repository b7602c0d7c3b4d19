package anonlead

import "anonlead/internal/spectral"

// ProfileMode chooses nothing: a network's size picks its profile regime.
//
// Deprecated: Network.Profile ignores it; bench/ is the last caller.
type ProfileMode int

// Deprecated: Network.Profile ignores it; bench/ is the last caller.
const ProfileAuto ProfileMode = 0

// Profile is the structural profile of a network: the quantities the
// paper's protocols are parameterized by (diameter, mixing time,
// conductance, isoperimetric number), plus the regime flags saying how
// each one was obtained. String renders the aligned block the CLIs print.
type Profile = spectral.Profile

// Profile returns the network's structural profile, computed on first use
// and cached: the profile every Run reads its profiled defaults from. The
// network's size picks the regime, exact for n ≤ 256 and the streaming
// estimate above (diameter lower bound, sampled-walk mixing time, sweep
// cuts; O(m) per pass). Concurrent callers are safe; repeated calls are
// free. Any argument is ignored.
func (nw *Network) Profile(...ProfileMode) (Profile, error) {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if nw.prof == nil {
		p, err := spectral.ProfileGraph(nw.g, nw.seed) // connected by construction
		if err != nil {
			return Profile{}, err
		}
		nw.prof = p
	}
	return *nw.prof, nil
}
