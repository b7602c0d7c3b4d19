// Package congest provides the bit-level size accounting of CONGEST-model
// payloads.
//
// The simulator charges every payload its exact bit size (Payload.Bits) and
// serializes link traffic into O(log n)-bit slots: protocol packages
// declare a payload's size as the sum of its fields' BitLen, and the
// simulator turns sizes into slots with Fragments. Nothing here encodes a
// payload; the bytes a real transport carries come from each protocol's
// sim.WireCodec.
//
// See docs/ARCHITECTURE.md for where this sits in the paper-to-code map.
package congest

import "math/bits"

// BitLen returns the number of bits needed to represent x (0 needs 1 bit).
func BitLen(x uint64) int {
	if x == 0 {
		return 1
	}
	return bits.Len64(x)
}

// Fragments returns how many budget-sized CONGEST slots a payload of the
// given bit size occupies (minimum 1). A payload within the budget, the
// common case on the router's per-send path, costs no division.
func Fragments(bitSize, budget int) int {
	if budget <= 0 {
		panic("congest: non-positive budget")
	}
	if bitSize <= budget {
		return 1
	}
	return (bitSize + budget - 1) / budget
}
