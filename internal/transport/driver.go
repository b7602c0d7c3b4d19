package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anonlead/internal/sim"
)

// ControlPlane is a node's end of the control plane: round releases in,
// per-round reports out (CoordPlane is the coordinator's end). The
// in-process Cluster implements it with channels; cmd/ledist node
// processes implement it over the coordinator TCP connection. Used from
// the node's driver goroutine only.
type ControlPlane interface {
	// WaitStart blocks until the coordinator releases the next round
	// (stop=false) or ends the run (stop=true). expect is the number of
	// data frames the node's neighbors sent it in the previous round.
	WaitStart() (round, expect int, stop bool, err error)
	// Report delivers the node's account of the round just executed.
	Report(r Report) error
}

// queued is one decoded data frame parked until its delivery round.
type queued struct {
	round int
	pkt   sim.Packet
}

// inbound buffers a node's incoming traffic between its port readers and
// its driver, in arrival order (FIFO per port, interleaved across ports).
// A node collecting round t's deliveries can only hold frames sent in
// rounds t-1 and t: no neighbor sends in t+1 before this node has reported
// t, and the rounds the node is not released in leave nothing behind,
// since a frame sent to it in round s files it into the visit set of
// s+1, where it takes that frame. So arrivals counted by round parity tell
// the driver when all of a round's frames are in.
type inbound struct {
	mu      sync.Mutex
	pkts    []queued
	arrived [2]int        // queued frames per sending-round parity
	err     error         // first reader failure, naming its port
	wake    chan struct{} // capacity 1: kicks the single waiting driver
}

func newInbound() *inbound { return &inbound{wake: make(chan struct{}, 1)} }

func (q *inbound) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *inbound) push(round int, pkt sim.Packet) {
	q.mu.Lock()
	q.pkts = append(q.pkts, queued{round: round, pkt: pkt})
	q.arrived[round&1]++
	q.mu.Unlock()
	q.signal()
}

func (q *inbound) fail(err error) {
	q.mu.Lock()
	if q.err == nil {
		q.err = err
	}
	q.mu.Unlock()
	q.signal()
}

// reset empties the queue of a node whose readers have all returned: the
// frames that reached it after it halted, unread, and the wake-up they
// left behind.
func (q *inbound) reset() {
	clear(q.pkts)
	q.pkts = q.pkts[:0]
	q.arrived = [2]int{}
	select {
	case <-q.wake:
	default:
	}
}

// take waits until expect frames sent in round have arrived, then moves
// exactly those into dst in arrival order and leaves later rounds' frames
// queued. A reader failure ends the wait.
func (q *inbound) take(round, expect int, dst []sim.Packet) ([]sim.Packet, error) {
	par := round & 1
	for {
		q.mu.Lock()
		if err := q.err; err != nil {
			q.mu.Unlock()
			return dst, err
		}
		if q.arrived[par] >= expect {
			break
		}
		q.mu.Unlock()
		<-q.wake
	}
	kept := q.pkts[:0]
	for _, e := range q.pkts {
		if e.round == round {
			dst = append(dst, e.pkt)
		} else {
			kept = append(kept, e)
		}
	}
	clear(q.pkts[len(kept):])
	q.arrived[par] -= len(q.pkts) - len(kept)
	q.pkts = kept
	q.mu.Unlock()
	return dst, nil
}

// driver owns one node of a cluster: the machine (behind a sim.Stepper),
// the node's link endpoints, and its receive queue. It runs the round
// discipline — collect, step, send, report, park — in a single goroutine;
// one reader goroutine per port feeds the queue.
type driver struct {
	node   int
	stephr *sim.Stepper
	codec  sim.WireCodec
	links  []Link
	in     *inbound

	// readers counts the port readers still running.
	readers sync.WaitGroup

	// halted is read by the reader goroutines to discard data addressed
	// to a stopped machine (the simulator drops such packets unread).
	halted atomic.Bool

	inbox   []sim.Packet
	encBuf  []byte
	perPort []uint32      // this round's sends per out-port, reused
	loads   sim.LinkLoads // this round's bit loads, per out-port
}

func newDriver(node int, st *sim.Stepper, codec sim.WireCodec, links []Link, budget int) *driver {
	return &driver{
		node:    node,
		stephr:  st,
		codec:   codec,
		links:   links,
		in:      newInbound(),
		perPort: make([]uint32, len(links)),
		loads:   sim.NewLinkLoads(len(links), budget),
	}
}

// run is the driver goroutine body: Init, then one iteration per round
// the coordinator releases this node in, until the stop message. The node
// is released only in rounds of its visit set, so every step it takes is
// one the simulator takes too, and never after it halted. Every released
// round produces exactly one report, even on failure — the coordinator
// never wedges on a sick node; it sees the Fail and aborts. It returns the
// control-plane error that ended the run early, if any.
func (d *driver) run(cp ControlPlane) error {
	d.readers.Add(len(d.links))
	for p := range d.links {
		go d.readPort(p)
	}
	rep, err := d.flush(-1, d.stephr.Init())
	if err != nil {
		rep.Fail = err.Error()
	}
	if err := cp.Report(rep); err != nil {
		return err
	}
	for {
		round, expect, stop, err := cp.WaitStart()
		if err != nil || stop {
			return err
		}
		rep := Report{Node: d.node}
		d.inbox, err = d.in.take(round-1, expect, d.inbox[:0])
		if err == nil {
			rep, err = d.flush(round, d.stephr.Step(round, d.inbox))
		}
		if err != nil {
			rep.Fail = err.Error()
		}
		if err := cp.Report(rep); err != nil {
			return err
		}
	}
}

// park drops what a finished run left in a driver whose goroutine and
// readers have all returned: its machine, its codec, the frames queued
// after it halted and its halt flag. The buffers and links stay for the
// next run, which sets stephr and codec anew.
func (d *driver) park() {
	d.stephr, d.codec = nil, nil
	d.halted.Store(false)
	d.in.reset()
	clear(d.inbox[:cap(d.inbox)])
}

// RunNode runs one node of a multi-process election (cmd/ledist) to
// completion on the driver every Cluster node runs: the Init flush, then
// one round per coordinator release until the stop signal. It blocks
// until the run ends and leaves the links open (the caller owns
// teardown). congestBits is the run's slot budget, which the coordinator
// resolves once for all nodes. The error is a control-plane failure that
// ended the run before the stop signal.
func RunNode(node int, st *sim.Stepper, codec sim.WireCodec, links []Link, congestBits int, cp ControlPlane) error {
	return newDriver(node, st, codec, links, congestBits).run(cp)
}

// readPort is the per-port reader goroutine: it decodes incoming frames
// into the node's queue until the peer closes the port or the link dies.
// Every failure names the port, since the queue is shared by all of them.
func (d *driver) readPort(p int) {
	defer d.readers.Done()
	l := d.links[p]
	for {
		f, err := l.ReadFrame()
		if err != nil {
			// EOF before a PortClosed frame means the peer died: the
			// driver surfaces it if it is still collecting.
			d.in.fail(fmt.Errorf("port %d: %w", p, err))
			return
		}
		switch f.Type {
		case FrameData:
			if d.halted.Load() {
				continue // the simulator drops packets to halted receivers
			}
			pl, err := d.codec.DecodePayload(f.Body)
			if err != nil {
				d.in.fail(fmt.Errorf("port %d: %w", p, err))
				return
			}
			d.in.push(f.Round, sim.Packet{Port: int32(p), Channel: f.Channel, Payload: pl})
		case FramePortClosed:
			return
		default:
			d.in.fail(fmt.Errorf("port %d: unexpected %v frame", p, f.Type))
			return
		}
	}
}

// flush writes the round's sends as data frames — plus, when the machine
// halted this round, the final PortClosed on every link — flushes each
// link, and builds the round report: per-port send counts, from which the
// coordinator derives in-flight and per-node delivery counts, the node's
// sim.Charge, metered exactly as the simulator's router meters it, and its
// IdleUntil promise.
func (d *driver) flush(round int, sends []sim.Send) (Report, error) {
	c := d.loads.Charge(sends)
	rep := Report{Node: d.node, Bits: c.Bits, MaxSlots: c.Slots, MaxChannels: c.Channels, Wake: d.stephr.Wake()}
	clear(d.perPort)
	for _, s := range sends {
		buf, err := d.codec.AppendPayload(d.encBuf[:0], s.Payload)
		if err != nil {
			return rep, err
		}
		d.encBuf = buf
		err = d.links[s.Port].WriteFrame(Frame{Type: FrameData, Round: round, Channel: s.Channel, Body: buf})
		if err != nil {
			return rep, fmt.Errorf("port %d: %w", s.Port, err)
		}
		d.perPort[s.Port]++
	}
	if len(sends) > 0 {
		// The coordinator folds every report before it releases the next
		// round, so the slice is free again by the next flush.
		rep.PerPort = d.perPort
	}
	if d.stephr.Halted() {
		rep.Halted = true
		d.halted.Store(true)
	}
	// A link with nothing buffered flushes without a write. A halting node
	// ends every link with PortClosed, which lets the peer's reader tell a
	// finished node from a dead one.
	for p, l := range d.links {
		var err error
		if rep.Halted {
			err = l.WriteFrame(Frame{Type: FramePortClosed, Round: round})
		}
		if err == nil {
			err = l.Flush()
		}
		if err != nil {
			return rep, fmt.Errorf("port %d: %w", p, err)
		}
	}
	return rep, nil
}
