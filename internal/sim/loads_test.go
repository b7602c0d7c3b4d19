package sim

import "testing"

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
	} {
		loads := NewLinkLoads(3, 8)
		loads.Charge(tc.prior)
		if got := loads.Charge(tc.sends); got != tc.want {
			t.Errorf("%s: charge %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
