package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"anonlead/internal/obs"
	"anonlead/internal/sim"
)

// ControlPlane is a node's end of the control plane: round releases in,
// per-round reports out (CoordPlane is the coordinator's end). The
// in-process Cluster implements it with channels; cmd/ledist node
// processes implement it over the coordinator TCP connection. Used from
// the node's driver goroutine only.
type ControlPlane interface {
	// WaitStart blocks until the coordinator releases the next round
	// (stop=false) or ends the run (stop=true).
	WaitStart() (round int, stop bool, err error)
	// Report delivers the node's account of the round just executed.
	Report(r Report) error
}

// wireMetrics is the transport's obs instrumentation, shared by every
// driver of a cluster. All fields may be nil-free no-ops when telemetry is
// off; Counter.Add is already a no-op while disabled.
type wireMetrics struct {
	framesTx *obs.Counter
	framesRx *obs.Counter
	bytesTx  *obs.Counter
	bytesRx  *obs.Counter
}

// queued is one decoded data frame parked until its delivery round.
type queued struct {
	round int
	pkt   sim.Packet
}

// portQueue buffers one port's incoming traffic between the reader
// goroutine and the driver. flushed tracks the highest round with a
// received end-of-round marker; per-link FIFO order guarantees that once
// EOR(t) is visible, every data frame of rounds <= t is already queued.
type portQueue struct {
	mu      sync.Mutex
	pkts    []queued
	flushed int
	closed  bool // peer sent its final PortClosed marker
	err     error
	wake    chan struct{} // capacity 1: kicks the single waiting driver
}

func newPortQueue() *portQueue {
	// flushed starts below the Init pseudo-round's marker EOR(-1).
	return &portQueue{flushed: -2, wake: make(chan struct{}, 1)}
}

func (q *portQueue) signal() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

func (q *portQueue) pushData(round int, pkt sim.Packet) {
	q.mu.Lock()
	q.pkts = append(q.pkts, queued{round: round, pkt: pkt})
	q.mu.Unlock()
}

func (q *portQueue) markFlushed(round int, closed bool) {
	q.mu.Lock()
	if round > q.flushed {
		q.flushed = round
	}
	q.closed = q.closed || closed
	q.mu.Unlock()
	q.signal()
}

func (q *portQueue) fail(err error) {
	q.mu.Lock()
	if q.err == nil && !q.closed {
		q.err = err
	}
	q.mu.Unlock()
	q.signal()
}

// await blocks until every data frame of the given round is queued: the
// peer's marker for that round arrived, or the peer closed the port for
// good (a halted peer sends nothing further, so nothing is missing).
func (q *portQueue) await(round int) error {
	for {
		q.mu.Lock()
		done := q.flushed >= round || q.closed
		err := q.err
		q.mu.Unlock()
		if done {
			return nil
		}
		if err != nil {
			return err
		}
		<-q.wake
	}
}

// pop moves the queued packets of the given round into dst. Senders write
// rounds monotonically, so the round's packets are a queue prefix.
func (q *portQueue) pop(round int, dst []sim.Packet) []sim.Packet {
	q.mu.Lock()
	i := 0
	for i < len(q.pkts) && q.pkts[i].round == round {
		dst = append(dst, q.pkts[i].pkt)
		i++
	}
	if i > 0 {
		q.pkts = q.pkts[:copy(q.pkts, q.pkts[i:])]
	}
	q.mu.Unlock()
	return dst
}

// driver owns one node of a cluster: the machine (behind a sim.Stepper),
// the node's link endpoints, and the per-port receive queues. It runs the
// synchronizer discipline — step, send, mark every port, report, park —
// in a single goroutine; one reader goroutine per port feeds the queues.
type driver struct {
	node   int
	stephr *sim.Stepper
	codec  sim.WireCodec
	links  []Link
	in     []*portQueue
	met    *wireMetrics

	// halted is read by the reader goroutines to discard data addressed
	// to a stopped machine (the simulator drops such packets unread).
	halted atomic.Bool

	inbox  []sim.Packet
	encBuf []byte
	loads  sim.LinkLoads // this round's bit loads, per out-port
}

func newDriver(node int, st *sim.Stepper, codec sim.WireCodec, links []Link, budget int, met *wireMetrics) *driver {
	d := &driver{
		node:   node,
		stephr: st,
		codec:  codec,
		links:  links,
		in:     make([]*portQueue, len(links)),
		met:    met,
		loads:  sim.NewLinkLoads(len(links), budget),
	}
	for p := range d.in {
		d.in[p] = newPortQueue()
	}
	return d
}

// run is the driver goroutine body: Init, then one iteration per
// coordinator-released round until the stop message. Every released round
// produces exactly one report, even on failure — the barrier never wedges
// on a sick node; the coordinator sees the Fail and aborts.
func (d *driver) run(cp ControlPlane) {
	for p := range d.links {
		go d.readPort(p)
	}
	rep, err := d.flush(-1, d.stephr.Init())
	if err != nil {
		rep.Fail = err.Error()
	}
	if cp.Report(rep) != nil {
		return
	}
	for {
		round, stop, err := cp.WaitStart()
		if err != nil || stop {
			return
		}
		var rep Report
		if d.stephr.Halted() {
			// The machine is done and the ports are closed; keep
			// confirming the (latched) halt at each barrier.
			rep = Report{Node: d.node, Halted: true}
		} else {
			inbox, err := d.collect(round)
			if err == nil {
				rep, err = d.flush(round, d.stephr.Step(round, inbox))
			} else {
				rep = Report{Node: d.node}
			}
			if err != nil {
				rep.Fail = err.Error()
			}
		}
		if cp.Report(rep) != nil {
			return
		}
	}
}

// RunNode runs one node of a multi-process election (cmd/ledist) to
// completion on the driver every Cluster node runs: the Init flush, then
// one round per coordinator release until the stop signal. It blocks
// until the run ends and leaves the links open (the caller owns
// teardown). congestBits is the run's slot budget, which the coordinator
// resolves once for all nodes.
func RunNode(node int, st *sim.Stepper, codec sim.WireCodec, links []Link, congestBits int, cp ControlPlane) {
	newDriver(node, st, codec, links, congestBits, newWireMetrics("dist")).run(cp)
}

// readPort is the per-port reader goroutine: it decodes incoming frames
// into the port queue until the peer closes the port or the link dies.
func (d *driver) readPort(p int) {
	q := d.in[p]
	l := d.links[p]
	for {
		f, err := l.ReadFrame()
		if err != nil {
			// EOF before a PortClosed marker is only legitimate during
			// teardown; fail records it and await surfaces it if anyone
			// still depends on this port.
			q.fail(err)
			return
		}
		d.met.framesRx.Inc()
		switch f.Type {
		case FrameData:
			if d.halted.Load() {
				continue // the simulator drops packets to halted receivers
			}
			pl, err := d.codec.DecodePayload(f.Body)
			if err != nil {
				q.fail(fmt.Errorf("port %d: %w", p, err))
				return
			}
			d.met.bytesRx.Add(int64(len(f.Body)))
			q.pushData(f.Round, sim.Packet{Port: p, Channel: f.Channel, Payload: pl})
		case FrameEOR:
			q.markFlushed(f.Round, false)
		case FramePortClosed:
			q.markFlushed(f.Round, true)
			return
		default:
			q.fail(fmt.Errorf("port %d: unexpected %v frame", p, f.Type))
			return
		}
	}
}

// collect assembles the inbox for the given round: the sends every live
// peer routed in round-1. Ports are drained in ascending order, and the
// stepper re-sorts by (port, channel), reproducing the simulator's
// canonical delivery order exactly.
func (d *driver) collect(round int) ([]sim.Packet, error) {
	d.inbox = d.inbox[:0]
	for p, q := range d.in {
		if err := q.await(round - 1); err != nil {
			return nil, fmt.Errorf("node %d port %d: %w", d.node, p, err)
		}
		d.inbox = q.pop(round-1, d.inbox)
	}
	return d.inbox, nil
}

// flush writes the round's sends as data frames, marks every port with
// EOR (or the final PortClosed when the machine halted this round), and
// builds the round report: per-port send counts for the barrier's
// in-flight accounting plus this node's half of the CONGEST cost metering.
func (d *driver) flush(round int, sends []sim.Send) (Report, error) {
	rep := Report{Node: d.node}
	d.loads.Reset()
	var perPort []uint32
	if len(sends) > 0 {
		perPort = make([]uint32, len(d.links))
	}
	for _, s := range sends {
		buf, err := d.codec.AppendPayload(d.encBuf[:0], s.Payload)
		if err != nil {
			return rep, err
		}
		d.encBuf = buf
		err = d.links[s.Port].WriteFrame(Frame{Type: FrameData, Round: round, Channel: s.Channel, Body: buf})
		if err != nil {
			return rep, err
		}
		d.met.framesTx.Inc()
		d.met.bytesTx.Add(int64(len(buf)))
		perPort[s.Port]++
		rep.Msgs++
		bits := s.Payload.Bits()
		rep.Bits += int64(bits)
		d.loads.Add(int32(s.Port), s.Channel, bits)
	}
	rep.PerPort = perPort
	// Each node owns its outgoing edges, so the coordinator's max over
	// node reports equals the simulator's max over all directed edges.
	rep.MaxSlots, rep.MaxChannels = d.loads.Max()
	marker := FrameEOR
	if d.stephr.Halted() {
		marker = FramePortClosed
		rep.Halted = true
		d.halted.Store(true)
	}
	for _, l := range d.links {
		if err := l.WriteFrame(Frame{Type: marker, Round: round}); err != nil {
			return rep, err
		}
		if err := l.Flush(); err != nil {
			return rep, err
		}
		d.met.framesTx.Inc()
	}
	return rep, nil
}
