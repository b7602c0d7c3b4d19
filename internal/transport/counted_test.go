package transport_test

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"anonlead"
	"anonlead/internal/core"
	"anonlead/internal/graph"
	"anonlead/internal/transport"
)

// tapTransport wraps a Transport: it counts the frames its links write, by
// type, and keeps the fabric so a test can cut a link mid-run.
type tapTransport struct {
	transport.Transport
	written [transport.FrameOutcome + 1]atomic.Int64
	fabric  *transport.Fabric
}

type tapLink struct {
	transport.Link
	t *tapTransport
}

func (l tapLink) WriteFrame(f transport.Frame) error {
	l.t.written[f.Type].Add(1)
	return l.Link.WriteFrame(f)
}

func (t *tapTransport) Connect(ctx context.Context, g *graph.Graph, seed uint64) (*transport.Fabric, error) {
	f, err := t.Transport.Connect(ctx, g, seed)
	if err != nil {
		return nil, err
	}
	for _, ports := range f.Links {
		for p, l := range ports {
			ports[p] = tapLink{l, t}
		}
	}
	t.fabric = f
	return f, nil
}

// TestTransportFramesAreMessages pins counted delivery: a run writes one
// data frame per message and, per directed edge, one PortClosed when its
// sender halts — nothing per round.
func TestTransportFramesAreMessages(t *testing.T) {
	const n, seed = 16, 3
	g, err := graph.Seeded("expander", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := anonlead.NewNetwork("expander", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, proto := range []string{anonlead.ProtoFloodMax, anonlead.ProtoWalkNotify} {
		entry, _ := core.Lookup(proto)
		pc, err := nw.ProtoConfig(proto)
		if err != nil {
			t.Fatal(err)
		}
		runner, err := entry.Build(pc)
		if err != nil {
			t.Fatal(err)
		}
		for _, inner := range backends() {
			t.Run(proto+"/"+inner.Name(), func(t *testing.T) {
				tap := &tapTransport{Transport: inner}
				c, err := transport.NewCluster(context.Background(), transport.Config{
					Graph: g, Seed: seed, Transport: tap,
				}, runner.Factory, entry.Wire)
				if err != nil {
					t.Fatal(err)
				}
				rounds, err := c.RunContext(context.Background(), runner.Budget)
				c.Close()
				if err != nil {
					t.Fatal(err)
				}
				closed := 0
				for v := 0; v < n; v++ {
					if c.Halted(v) {
						closed += g.Degree(v)
					}
				}
				msgs := c.Metrics().Messages
				var total int64
				for i := range tap.written {
					total += tap.written[i].Load()
				}
				data, ends := tap.written[transport.FrameData].Load(), tap.written[transport.FramePortClosed].Load()
				if data != msgs || ends != int64(closed) || total != msgs+int64(closed) {
					t.Fatalf("%d rounds, %d messages, %d halted port ends: wrote %d frames (%d data, %d port-closed)",
						rounds, msgs, closed, total, data, ends)
				}
			})
		}
	}
}

// TestTransportDeadLinkNamesPort cuts one link between rounds, with no
// PortClosed: the run must end with an error naming a node and its port
// at one end of that link, and Close must return.
func TestTransportDeadLinkNamesPort(t *testing.T) {
	g := graph.Cycle(6)
	w, q := g.Neighbor(0, 0), g.ReversePorts()[g.EdgeOffsets()[0]]
	ends := []string{"node 0: port 0: ", fmt.Sprintf("node %d: port %d: ", w, q)}
	for _, inner := range backends() {
		t.Run(inner.Name(), func(t *testing.T) {
			tap := &tapTransport{Transport: inner}
			c, err := transport.NewCluster(context.Background(), transport.Config{
				Graph: g, Seed: 1, Transport: tap,
			}, newFloodFactory(20), testCodec{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := c.RunContext(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			tap.fabric.Links[0][0].Close()
			within(t, "run over a dead link", func() { _, err = c.RunContext(context.Background(), 100) })
			if err == nil || !strings.Contains(err.Error(), ends[0]) && !strings.Contains(err.Error(), ends[1]) {
				t.Fatalf("got error %v, want one naming %q or %q", err, ends[0], ends[1])
			}
			within(t, "Close", c.Close)
		})
	}
}
