// Package sim is a synchronous message-passing simulator for anonymous
// networks under the CONGEST model, the execution substrate for every
// protocol in this repository.
//
// The model follows Section 2 of the paper exactly:
//
//   - Time is slotted into globally synchronous rounds. Messages sent in
//     round t are delivered at the start of round t+1.
//   - Nodes are anonymous: a protocol machine observes only its degree, its
//     private random stream, the current round number, and the ports
//     (0..deg-1) on which packets arrive. The API offers no node identity.
//   - Each link carries O(log n) bits per round. The simulator meters every
//     payload and charges "CONGEST rounds": traffic on one link within one
//     logical round is serialized into budget-sized slots, with distinct
//     logical channels (parallel protocol executions, cf. the paper's
//     super-round multiplexing) never sharing a slot.
//
// Every round runs on the calling goroutine: the visited nodes step in
// ascending order, and their sends are routed in that order afterwards, so
// a run is a function of its graph, seed, machines and adversary alone.
// What steps machines concurrently is internal/transport's chan backend,
// one goroutine per node, folded through the same Ledger.
//
// A machine that knows its next steps would do nothing may say so with
// Context.IdleUntil: the network then skips its Step while its inbox stays
// empty. A round visits only the nodes with mail, without a promise, or
// whose promised round has come, so it costs work in proportion to the
// nodes that have something to do, plus one pass over an n-bit set. The
// hint is a promise about the machine, not a change of semantics — every
// skipped call is one that would have been a no-op.
package sim

import (
	"fmt"
	"math"

	"anonlead/internal/rng"
)

// Payload is a protocol-defined message body. Bits reports the exact
// CONGEST size of the encoded payload; the simulator uses it for bit
// accounting and slot serialization. Payloads are delivered by reference:
// one sent in round r must stay unchanged until every step that can
// receive it has run, which is the first life rounds after the send (see
// Msgs), and a receiver copies out what it keeps past its step.
type Payload interface {
	Bits() int
}

// Packet is a delivered message.
type Packet struct {
	// Port is the receiving node's port on which the packet arrived.
	Port int
	// Channel tags the logical protocol execution (paper super-round slot)
	// the packet belongs to. Traffic on distinct channels never shares a
	// CONGEST slot.
	Channel uint32
	// Payload is the message body.
	Payload Payload
}

// Machine is a per-node protocol state machine. Implementations must not
// retain or share state across machines other than through messages: the
// transport backends (internal/transport's chan backend first) step every
// node on its own goroutine, which is race-free only if Step(v) touches
// machine v's state alone. A received payload is valid during the Step
// that receives it; a machine copies the fields it needs later, since the
// sender may reuse the payload's memory (Msgs).
type Machine interface {
	// Init runs once before round 0. Machines may send from Init; those
	// packets arrive at the start of round 0.
	Init(ctx *Context)
	// Step runs once per round with the packets delivered this round
	// (sent by neighbors in the previous round), in ascending port order —
	// except that a round whose inbox is empty may be skipped while an
	// IdleUntil promise made by the previous call holds.
	Step(ctx *Context, inbox []Packet)
}

// Factory builds the machine for a node. The node index is provided so the
// harness can correlate per-node outputs; protocol logic must not use it
// (anonymity). The RNG is the node's private stream.
type Factory func(node, degree int, r *rng.RNG) Machine

// Context is a machine's window onto the network for one call. It exposes
// exactly the information the paper's model grants an anonymous node.
// Contexts are only valid for the duration of the Init/Step call.
type Context struct {
	degree int
	round  int
	rng    *rng.RNG
	out    []Send
	halted bool
	life   uint8 // rounds a sent payload stays valid; 0 for no ring (see msgLife)
	wake   int32 // IdleUntil promise; int32 fits the padding after halted
}

// maxMsgLife bounds the rounds a Msgs ring spans. A delay bound beyond it
// gives life 0, and each message is its own heap object: a ring that long
// would hold more than a machine sends over the rounds it covers.
const maxMsgLife = 16

// msgLife returns how many rounds a payload stays valid after its send
// when delivery can lag maxDelay extra rounds: it is delivered by round
// r+1+maxDelay, so the sends of round r+maxDelay+2 may reuse its memory —
// the bound of the network's delay ring. A wire Stepper encodes its sends
// before the next step and uses msgLife(0).
func msgLife(maxDelay int) uint8 {
	if maxDelay+2 > maxMsgLife {
		return 0
	}
	return uint8(maxDelay + 2)
}

// Send is one outgoing message of a machine step: what Context.Send
// records, the router consumes and a Stepper hands its driver.
type Send struct {
	// Port is the sender's port the payload leaves on.
	Port int
	// Channel tags the logical protocol execution (see Packet.Channel).
	Channel uint32
	// Payload is the message body.
	Payload Payload
}

// Degree returns the number of ports (incident links) of this node.
func (c *Context) Degree() int { return c.degree }

// Round returns the current round number (Init is round -1).
func (c *Context) Round() int { return c.round }

// RNG returns the node's private random stream.
func (c *Context) RNG() *rng.RNG { return c.rng }

// Send enqueues payload on the given port and logical channel; it is
// delivered to the neighbor at the start of the next round. Send panics on
// an out-of-range port (protocol bug) or nil payload.
func (c *Context) Send(port int, channel uint32, payload Payload) {
	if port < 0 || port >= c.degree {
		panic(fmt.Sprintf("sim: send on invalid port %d (degree %d)", port, c.degree))
	}
	if payload == nil {
		panic("sim: send with nil payload")
	}
	c.out = append(c.out, Send{Port: port, Channel: channel, Payload: payload})
}

// Broadcast sends payload on every port, on channel 0.
func (c *Context) Broadcast(payload Payload) {
	for p := 0; p < c.degree; p++ {
		c.Send(p, 0, payload)
	}
}

// Halt marks this node as stopped: Step will no longer be called and the
// node sends nothing further. Halting is how protocols realize the
// "all nodes stop" clause of Irrevocable Leader Election (Definition 1).
func (c *Context) Halt() { c.halted = true }

// IdleUntil is the machine's promise that, in every round before round, a
// Step with an empty inbox would do nothing: no send, no state change, no
// RNG draw, no Halt. The network may then skip those calls; a packet
// arriving in the meantime wakes the machine as usual. The promise lasts
// until the next Step call, which makes a fresh one or none (the last
// IdleUntil of a call wins), so a round ≤ Round()+1 promises nothing.
// Backends that must visit every node each round may ignore it.
func (c *Context) IdleUntil(round int) {
	// Clamping only weakens the promise: no Step round is negative, and no
	// run reaches round 2³¹.
	c.wake = int32(min(max(round, 0), math.MaxInt32))
}

// reset prepares the context for the next call.
func (c *Context) reset(round int) {
	c.round = round
	c.out = c.out[:0]
	c.wake = 0
}
