// Package core implements the paper's two leader-election protocols for
// anonymous CONGEST networks:
//
//   - Irrevocable Leader Election with known network size (Section 4,
//     Algorithms 1–5): random candidate sampling, *cautious broadcast*
//     territory growth with doubling-threshold subtree control, candidate
//     random-walk probes with max-ID absorption, and per-territory
//     convergecast. Elects a unique leader whp using Õ(√(n·tmix/Φ))
//     messages in O(tmix·log² n) time.
//
//   - Revocable ("Blind") Leader Election with Certificates via Diffusion
//     with Thresholds for unknown network size (Section 5.2, Algorithms
//     6–7): doubling size estimates probed by a potential-diffusion process
//     with alarms and thresholds; IDs compounded with the estimate used to
//     choose them act as certificates. Solves explicit Revocable LE whp in
//     Õ(n^{4(1+ε)}/i(G)²) time.
//
// Both protocols run on the internal/sim substrate and observe only what
// the paper's model grants an anonymous node: its degree, its ports, its
// private randomness, and (for the irrevocable protocol) the global inputs
// n, tmix, Φ.
//
// The package also holds the protocol registry the baselines join
// (registry.go). Each protocol says each thing once: ProtoConfig is the
// only configuration type, every builder resolves it exactly once (its
// resolve function is the one place inputs are validated, defaults chosen
// and lengths derived), Entry.Build is the only way to obtain a machine
// factory, the paper's candidate sampling is the one Candidacy every
// sampling protocol draws through, and a protocol whose outcome is only
// who leads gets the one collectLeaders.
//
// # Fidelity notes
//
// Two places where the paper's prose and pseudocode diverge are resolved in
// favor of the prose, because the complexity analysis (Lemma 1) depends on
// it: (1) subtree-size reports during cautious broadcast are sent only when
// the confirmed count crosses the node's current doubling threshold (the
// pseudocode line 24 sends every round, which would void the message
// bound); (2) convergecast forwards the max walk ID only when it changes
// (the pseudocode resends every round). Both gated variants send a superset
// of the information the analysis requires. Protocol constants that the
// analysis fixes only as "sufficiently large c" are ProtoConfig fields
// with defaults calibrated on the Table 1 sweeps (lebench -exp table1).
package core
