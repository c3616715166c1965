package plan

import (
	"math"
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

// edgeCosts serves EdgeCost for one bandwidth view. Without a table every
// remote edge queries bw. With one, table[from*hosts+to] memoises the
// ordered pair's cost, NaN until it is first asked for, so bw sees the same
// first queries in the same order and no repeats.
type edgeCosts struct {
	m     CostModel
	bw    BandwidthFn
	hosts int
	table []float64
}

func (c *edgeCosts) cost(from, to netmodel.HostID) float64 {
	if c.table == nil || from == to {
		return c.m.EdgeCost(from, to, c.bw)
	}
	i := int(from)*c.hosts + int(to)
	v := c.table[i]
	if math.IsNaN(v) {
		v = c.m.EdgeCost(from, to, c.bw)
		c.table[i] = v
	}
	return v
}

// walk is the tree walk Evaluate and Scorer share: every node's path cost,
// and per-host NIC and CPU loads indexed by host id.
type walk struct {
	p        *Placement
	edges    edgeCosts
	costs    []float64
	nic, cpu []float64
}

// visit returns the longest path cost from node id's subtree to id,
// accumulating every host's loads on the way.
func (w *walk) visit(id NodeID) float64 {
	p, m := w.p, w.edges.m
	n := p.tree.Node(id)
	best := 0.0
	for _, c := range n.Children {
		ec := w.edges.cost(p.loc[c], p.loc[id])
		if ec > 0 {
			// One NIC per host: each remote transfer occupies both
			// endpoints' NICs for its duration.
			w.nic[p.loc[c]] += ec
			w.nic[p.loc[id]] += ec
		}
		cc := w.visit(c) + ec
		if cc > best {
			best = cc
		}
	}
	switch n.Kind {
	case Operator:
		w.cpu[p.loc[id]] += m.ComputeDur.Seconds()
	case Server:
		w.cpu[p.loc[id]] += m.DiskDur.Seconds()
	}
	w.costs[id] = best + m.nodeCost(n)
	return w.costs[id]
}

// score walks the whole tree and returns the placement's cost, its
// critical path, and its busiest load with the lowest host carrying it.
func (w *walk) score() (total, critical, bottleneck float64, bottleneckHost netmodel.HostID) {
	critical = w.visit(w.p.tree.client)
	for h := range w.nic {
		l := max(w.nic[h], w.cpu[h])
		if l > bottleneck {
			bottleneck = l
			bottleneckHost = netmodel.HostID(h)
		}
	}
	total = critical
	if bottleneck > total {
		total = bottleneck
	}
	return total, critical, bottleneck, bottleneckHost
}

// path appends the critical path of the placement w walked last to dst:
// from the client, it repeatedly descends into the child that realised the
// max.
func (w *walk) path(dst []NodeID) []NodeID {
	t, p := w.p.tree, w.p
	cur := t.client
	dst = append(dst, cur)
	for {
		bestChild := NoNode
		bestCost := -1.0
		for _, c := range t.Node(cur).Children {
			cc := w.costs[c] + w.edges.cost(p.loc[c], p.loc[cur])
			if cc > bestCost {
				bestCost = cc
				bestChild = c
			}
		}
		if bestChild == NoNode {
			return dst
		}
		dst = append(dst, bestChild)
		cur = bestChild
	}
}

// hostSpan returns one more than the highest host id p uses.
func (p *Placement) hostSpan() int {
	hosts := 0
	for _, h := range p.loc {
		if int(h) >= hosts {
			hosts = int(h) + 1
		}
	}
	return hosts
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
	hosts := p.hostSpan()
	var stack [2 * maxStackHosts]float64
	loads := stack[:]
	if hosts > maxStackHosts {
		loads = make([]float64, 2*hosts)
	}
	// Return costs from its own variable, not as w.costs: escape analysis
	// does not tell w's fields apart, so returning w.costs would move the
	// stack array to the heap.
	costs := make([]float64, t.NumNodes())
	w := walk{
		p: p, edges: edgeCosts{m: m, bw: bw}, costs: costs,
		nic: loads[:hosts],
		cpu: loads[hosts : 2*hosts],
	}
	total, critical, bottleneck, bottleneckHost := w.score()
	// A path holds the client, at most one operator per level, and a server.
	path := w.path(make([]NodeID, 0, t.depth+2))
	return Evaluation{
		Cost:           total,
		CriticalPath:   critical,
		Bottleneck:     bottleneck,
		BottleneckHost: bottleneckHost,
		Path:           path,
		NodeCost:       costs,
	}
}

// Scorer scores placements of one tree for one optimiser call: the placement
// it is built from and any placement that moves operators among the given
// hosts. Its edge table asks bw for each ordered host pair once, and its
// node costs, per-host loads and path are reused, so scoring allocates
// nothing.
type Scorer struct {
	w    walk
	path []NodeID
}

// NewScorer returns a Scorer for placements of p's tree over p's hosts and
// hosts, viewing the network through bw. It returns a value so that a
// caller's Scorer, and with it bw, can stay on the caller's stack.
func (m CostModel) NewScorer(p *Placement, hosts []netmodel.HostID, bw BandwidthFn) Scorer {
	n := p.hostSpan()
	for _, h := range hosts {
		n = max(n, int(h)+1)
	}
	// One buffer holds the edge table, the loads and the node costs.
	buf := make([]float64, n*n+2*n+p.tree.NumNodes())
	table := buf[:n*n]
	for i := range table {
		table[i] = math.NaN()
	}
	return Scorer{
		w: walk{
			edges: edgeCosts{m: m, bw: bw, hosts: n, table: table},
			costs: buf[n*n+2*n:],
			nic:   buf[n*n : n*n+n],
			cpu:   buf[n*n+n : n*n+2*n],
		},
		path: make([]NodeID, 0, p.tree.depth+2),
	}
}

// Score returns the placement's cost, bit for bit Evaluate(p, bw).Cost.
//
//lint:hotpath
//lint:allocbudget 0 the edge table and the scratch space are allocated by NewScorer
func (s *Scorer) Score(p *Placement) float64 { return s.run(p) }

// CriticalPath returns the placement's cost and critical path, as Evaluate
// does. The path is valid until the next call.
func (s *Scorer) CriticalPath(p *Placement) (float64, []NodeID) {
	// Nothing derived from s is stored back into s, so a Scorer on its
	// caller's stack, and the bw it holds, stay there.
	return s.run(p), s.w.path(s.path[:0])
}

// run walks p and returns its cost.
func (s *Scorer) run(p *Placement) float64 {
	s.w.p = p
	clear(s.w.nic)
	clear(s.w.cpu)
	total, _, _, _ := s.w.score()
	return total
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
