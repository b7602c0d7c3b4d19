package sim

import (
	"testing"

	"anonlead/internal/congest"
	"anonlead/internal/rng"
)

// TestLinkLoadsCharge pins the per-sender CONGEST charge both backends
// meter with: loads coalesce per (port, channel), distinct channels never
// share a slot, an oversized payload takes ⌈bits/budget⌉ slots (alone or
// beside another send), and each Charge starts from an idle table whatever
// the previous sender sent.
func TestLinkLoadsCharge(t *testing.T) {
	send := func(port int, channel uint32, bits int) Send {
		return Send{Port: port, Channel: channel, Payload: testMsg{bits: bits}}
	}
	for _, tc := range []struct {
		name  string
		prior []Send // an earlier sender charged on the same table
		sends []Send
		want  Charge
	}{
		{"one channel coalesces", nil,
			[]Send{send(0, 1, 3), send(0, 1, 4)},
			Charge{Messages: 2, Bits: 7, Slots: 1, Channels: 1}},
		{"channels never share a slot", nil,
			[]Send{send(0, 0, 3), send(0, 1, 3)},
			Charge{Messages: 2, Bits: 6, Slots: 2, Channels: 2}},
		{"oversized payload", nil,
			[]Send{send(2, 0, 20), send(0, 0, 1)},
			Charge{Messages: 2, Bits: 21, Slots: 3, Channels: 1}},
		{"lone oversized payload", nil,
			[]Send{send(2, 0, 20)},
			Charge{Messages: 1, Bits: 20, Slots: 3, Channels: 1}},
		{"next sender starts idle", []Send{send(1, 0, 20), send(1, 1, 5), send(1, 2, 5)},
			[]Send{send(1, 0, 1), send(2, 0, 1)},
			Charge{Messages: 2, Bits: 2, Slots: 1, Channels: 1}},
		{"no sends", []Send{send(1, 0, 20), send(1, 1, 5)},
			nil,
			Charge{}},
		{"a port revisited after another", nil,
			[]Send{send(0, 0, 5), send(1, 0, 3), send(0, 0, 5)},
			Charge{Messages: 3, Bits: 13, Slots: 2, Channels: 1}},
	} {
		loads := NewLinkLoads(3, 8)
		loads.Charge(tc.prior)
		if got := loads.Charge(tc.sends); got != tc.want {
			t.Errorf("%s: charge %+v, want %+v", tc.name, got, tc.want)
		}
	}
}

// TestLinkLoadsChargeMatchesReference checks Charge on one reused table
// against a reference that keeps each (port, channel) load in a map: random
// sends of 0–12 payloads on ports 0–5 in any order, channels 0–3 and 0–60
// bits, under budgets of 1, 8 and 48 bits.
func TestLinkLoadsChargeMatchesReference(t *testing.T) {
	r := rng.New(7)
	for _, budget := range []int{1, 8, 48} {
		loads := NewLinkLoads(6, budget)
		for trial := 0; trial < 3000; trial++ {
			sends := make([]Send, r.Intn(13))
			for i := range sends {
				sends[i] = Send{Port: r.Intn(6), Channel: uint32(r.Intn(4)), Payload: testMsg{bits: r.Intn(61)}}
			}
			if got, want := loads.Charge(sends), referenceCharge(sends, budget); got != want {
				t.Fatalf("budget %d trial %d: Charge(%v) = %+v, want %+v", budget, trial, sends, got, want)
			}
		}
	}
}

// referenceCharge is Charge written from its definition: a link's slots
// are the sum over its channels of ⌈bits/budget⌉ (at least 1), and the
// charge keeps the largest slot and channel count over links.
func referenceCharge(sends []Send, budget int) Charge {
	type link struct {
		port    int
		channel uint32
	}
	load := map[link]int{}
	c := Charge{Messages: int64(len(sends))}
	for _, s := range sends {
		load[link{s.Port, s.Channel}] += s.Payload.Bits()
		c.Bits += int64(s.Payload.Bits())
	}
	slots, channels := map[int]int{}, map[int]int{}
	for l, bits := range load {
		slots[l.port] += congest.Fragments(bits, budget)
		channels[l.port]++
	}
	for p := range slots {
		c.Slots = max(c.Slots, slots[p])
		c.Channels = max(c.Channels, channels[p])
	}
	return c
}
