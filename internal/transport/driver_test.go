package transport

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"anonlead/internal/sim"
)

// TestInboundTakesOneRound: frames of the next round that overtake this
// round's on another port stay queued; take returns exactly the round's
// frames in per-port arrival order, blocks until the coordinator's count
// is in, and ends the wait on a reader failure.
func TestInboundTakesOneRound(t *testing.T) {
	pkt := func(port int32, ch uint32) sim.Packet { return sim.Packet{Port: port, Channel: ch} }
	q := newInbound()
	q.push(4, pkt(0, 40))
	q.push(3, pkt(1, 30))
	q.push(4, pkt(0, 41))
	q.push(3, pkt(1, 31))

	got, err := q.take(3, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []sim.Packet{pkt(1, 30), pkt(1, 31)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round 3: got %v want %v", got, want)
	}
	if want := []queued{{4, pkt(0, 40)}, {4, pkt(0, 41)}}; !reflect.DeepEqual(q.pkts, want) {
		t.Fatalf("left queued %v, want %v", q.pkts, want)
	}
	if q.arrived != [2]int{2, 0} {
		t.Fatalf("arrival counts %v after take, want [2 0]", q.arrived)
	}

	done := make(chan []sim.Packet)
	go func() {
		got, _ := q.take(4, 3, nil)
		done <- got
	}()
	select {
	case got := <-done:
		t.Fatalf("take returned %v with 2 of 3 frames in", got)
	case <-time.After(20 * time.Millisecond):
	}
	q.push(4, pkt(1, 42))
	if got := <-done; len(got) != 3 || got[2] != pkt(1, 42) {
		t.Fatalf("round 4: got %v", got)
	}

	boom := errors.New("port 1: boom")
	go q.fail(boom)
	if _, err := q.take(5, 1, nil); err != boom {
		t.Fatalf("take after a reader failure: %v, want %v", err, boom)
	}
}
