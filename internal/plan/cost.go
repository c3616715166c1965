package plan

import (
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

// BandwidthFn supplies the bandwidth estimate between two distinct hosts.
// Placement algorithms receive their view of the network through this
// function — typically backed by the monitoring subsystem's caches, so the
// algorithms see measured (possibly stale) values, not ground truth.
type BandwidthFn func(a, b netmodel.HostID) trace.Bandwidth

// CostModel holds the per-partition constants used to score placements.
type CostModel struct {
	// Startup is the fixed per-message cost (50 ms in the paper).
	Startup time.Duration
	// DataBytes is the expected size of one data partition (one image,
	// mean 128 KB in the paper).
	DataBytes int64
	// ComputeDur is the cost of one combination operation on a partition
	// (7 µs/pixel × pixels in the paper).
	ComputeDur time.Duration
	// DiskDur is the cost of reading one partition from a server's disk.
	DiskDur time.Duration
}

// DefaultCostModel derives the paper's cost constants for a mean partition
// size (1 byte = 1 pixel, disk at 3 MB/s).
func DefaultCostModel(meanBytes int64) CostModel {
	return CostModel{
		Startup:    netmodel.DefaultStartup,
		DataBytes:  meanBytes,
		ComputeDur: time.Duration(meanBytes) * netmodel.DefaultComposePerPixel,
		DiskDur:    time.Duration(float64(meanBytes) / netmodel.DefaultDiskBandwidth * float64(time.Second)),
	}
}

// EdgeCost returns the expected transfer time of one partition from host a
// to host b: zero when co-located (the entire benefit of placement), start-up
// plus size over bandwidth otherwise.
func (m CostModel) EdgeCost(from, to netmodel.HostID, bw BandwidthFn) float64 {
	if from == to {
		return 0
	}
	b := bw(from, to)
	if b <= 0 {
		b = 1
	}
	return m.Startup.Seconds() + float64(m.DataBytes)/float64(b)
}

// nodeCost is the processing cost charged at a node.
func (m CostModel) nodeCost(n *Node) float64 {
	switch n.Kind {
	case Server:
		return m.DiskDur.Seconds()
	case Operator:
		return m.ComputeDur.Seconds()
	default:
		return 0
	}
}

// Evaluation is the result of scoring a placement.
type Evaluation struct {
	// Cost is the placement's score: the maximum of the critical-path
	// length and the busiest per-host resource load. The critical path
	// bounds a single partition's latency; the per-iteration resource load
	// (every host has a single NIC that serialises its transfers, a single
	// CPU, a single disk) bounds the pipeline's steady-state throughput —
	// which dominates end-to-end time over 180 partitions.
	Cost float64
	// CriticalPath is the longest server→client path length in seconds.
	CriticalPath float64
	// Bottleneck is the busiest single resource's per-iteration load, and
	// BottleneckHost the host it lives on. When several hosts carry the
	// same busiest load, BottleneckHost is the lowest host id among them.
	Bottleneck     float64
	BottleneckHost netmodel.HostID
	// Path lists the critical path's nodes from the client down to a server.
	Path []NodeID
	// NodeCost[i] is the accumulated path cost up to and including node i.
	NodeCost []float64
}

// maxStackHosts is the most hosts whose per-host loads Evaluate keeps in a
// fixed array on its stack; placements over more hosts use the heap.
const maxStackHosts = 64

// evaluation is Evaluate's working state: per-node path costs and per-host
// NIC and CPU loads, indexed by host id.
type evaluation struct {
	m        CostModel
	p        *Placement
	bw       BandwidthFn
	costs    []float64
	nic, cpu []float64
}

// visit returns the longest path cost from node id's subtree to id,
// accumulating every host's loads on the way.
func (e *evaluation) visit(id NodeID) float64 {
	p, m := e.p, e.m
	n := p.tree.Node(id)
	best := 0.0
	for _, c := range n.Children {
		ec := m.EdgeCost(p.loc[c], p.loc[id], e.bw)
		if ec > 0 {
			// One NIC per host: each remote transfer occupies both
			// endpoints' NICs for its duration.
			e.nic[p.loc[c]] += ec
			e.nic[p.loc[id]] += ec
		}
		cc := e.visit(c) + ec
		if cc > best {
			best = cc
		}
	}
	switch n.Kind {
	case Operator:
		e.cpu[p.loc[id]] += m.ComputeDur.Seconds()
	case Server:
		e.cpu[p.loc[id]] += m.DiskDur.Seconds()
	}
	e.costs[id] = best + m.nodeCost(n)
	return e.costs[id]
}

// Evaluate scores a placement under the cost model. The evaluation is
// branch-and-bound friendly: bandwidth is queried only for edges whose
// endpoints differ, so a caller counting queries sees only the links the
// algorithm actually needed.
//
//lint:hotpath
//lint:allocbudget 3 the returned NodeCost and Path slices, plus the load slice of a placement over more than 64 hosts
func (m CostModel) Evaluate(p *Placement, bw BandwidthFn) Evaluation {
	t := p.tree
	hosts := 0
	for _, h := range p.loc {
		if int(h) >= hosts {
			hosts = int(h) + 1
		}
	}
	var stack [2 * maxStackHosts]float64
	loads := stack[:]
	if hosts > maxStackHosts {
		loads = make([]float64, 2*hosts)
	}
	// Return costs from its own variable, not as e.costs: escape analysis
	// does not tell e's fields apart, so returning e.costs would move the
	// stack array to the heap.
	costs := make([]float64, t.NumNodes())
	e := evaluation{
		m: m, p: p, bw: bw, costs: costs,
		nic: loads[:hosts],
		cpu: loads[hosts : 2*hosts],
	}
	critical := e.visit(t.client)
	var bottleneck float64
	var bottleneckHost netmodel.HostID
	for h := range hosts {
		l := max(e.nic[h], e.cpu[h])
		if l > bottleneck {
			bottleneck = l
			bottleneckHost = netmodel.HostID(h)
		}
	}
	total := critical
	if bottleneck > total {
		total = bottleneck
	}

	// Extract the critical path: from the client, repeatedly descend into
	// the child that realised the max.
	path := []NodeID{t.client}
	cur := t.client
	for {
		n := t.Node(cur)
		if len(n.Children) == 0 {
			break
		}
		bestChild := NoNode
		bestCost := -1.0
		for _, c := range n.Children {
			cc := costs[c] + m.EdgeCost(p.loc[c], p.loc[cur], bw)
			if cc > bestCost {
				bestCost = cc
				bestChild = c
			}
		}
		path = append(path, bestChild)
		cur = bestChild
	}
	return Evaluation{
		Cost:           total,
		CriticalPath:   critical,
		Bottleneck:     bottleneck,
		BottleneckHost: bottleneckHost,
		Path:           path,
		NodeCost:       costs,
	}
}

// CriticalOperators filters an evaluation's path down to operator nodes, the
// candidates the one-shot algorithm considers moving.
func (e Evaluation) CriticalOperators(t *Tree) []NodeID {
	var out []NodeID
	for _, id := range e.Path {
		if t.Node(id).Kind == Operator {
			out = append(out, id)
		}
	}
	return out
}

// CountingBandwidth wraps a BandwidthFn and records the distinct links
// queried — the paper notes that "due to the branch and bound nature of the
// algorithm only a subset of the links need to be measured"; this makes that
// measurable.
type CountingBandwidth struct {
	Fn      BandwidthFn
	queried map[[2]netmodel.HostID]bool
}

// NewCountingBandwidth wraps fn.
func NewCountingBandwidth(fn BandwidthFn) *CountingBandwidth {
	return &CountingBandwidth{Fn: fn, queried: make(map[[2]netmodel.HostID]bool)}
}

// Bandwidth implements BandwidthFn.
func (c *CountingBandwidth) Bandwidth(a, b netmodel.HostID) trace.Bandwidth {
	k := [2]netmodel.HostID{a, b}
	if a > b {
		k = [2]netmodel.HostID{b, a}
	}
	c.queried[k] = true
	return c.Fn(a, b)
}

// DistinctLinks returns how many distinct links have been queried.
func (c *CountingBandwidth) DistinctLinks() int { return len(c.queried) }
