package sim

// WireCodec serializes a protocol's payloads for the real-transport
// backend. The in-memory simulator delivers payloads by reference and
// never needs one; a socket carries bytes, so every protocol that wants to
// run distributed registers a codec alongside its builder. Decode must
// reproduce a value equal to the encoded one — the determinism contract
// (same seed, same leader, same rounds on either backend) depends on
// machines observing identical payloads.
type WireCodec interface {
	// AppendPayload appends p's encoding to dst and returns the extended
	// slice. It fails on payload types the codec does not know.
	AppendPayload(dst []byte, p Payload) ([]byte, error)
	// DecodePayload decodes one payload from src (the exact bytes a single
	// AppendPayload produced).
	DecodePayload(src []byte) (Payload, error)
}

// LeaderReporter is implemented by protocol machines that can report their
// node's leadership claim without the caller knowing the concrete machine
// type. The registry's default collector reads every machine through it,
// and the multi-process launcher uses it to collect election outcomes from
// node processes that only hold their own machine (the registry's Collect
// hooks need the whole network and run coordinator-side instead).
type LeaderReporter interface {
	// LeaderInfo reports whether this node claims leadership, and under
	// which random ID (0 when not a leader).
	LeaderInfo() (leader bool, id uint64)
}
