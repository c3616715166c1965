package plan

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

// uniformBW returns a BandwidthFn with the same bandwidth everywhere.
func uniformBW(bw trace.Bandwidth) BandwidthFn {
	return func(a, b netmodel.HostID) trace.Bandwidth { return bw }
}

// simpleModel: no compute/disk/startup, 1000-byte partitions — edge cost is
// exactly 1000/bw seconds, which makes expectations hand-checkable.
var simpleModel = CostModel{DataBytes: 1000}

func TestEdgeCost(t *testing.T) {
	m := CostModel{Startup: 50 * time.Millisecond, DataBytes: 1000}
	if got := m.EdgeCost(1, 1, uniformBW(100)); got != 0 {
		t.Errorf("co-located edge cost = %v", got)
	}
	want := 0.05 + 10.0
	if got := m.EdgeCost(0, 1, uniformBW(100)); math.Abs(got-want) > 1e-12 {
		t.Errorf("edge cost = %v, want %v", got, want)
	}
	// Zero bandwidth is floored rather than dividing by zero.
	if got := m.EdgeCost(0, 1, uniformBW(0)); math.IsInf(got, 1) || math.IsNaN(got) {
		t.Errorf("zero-bw edge cost = %v", got)
	}
}

// TestBottleneckTiePicksLowestHost: two servers carry the same disk load,
// the busiest in the placement; BottleneckHost must name the lower host id
// whatever order the tree visits them in.
func TestBottleneckTiePicksLowestHost(t *testing.T) {
	m := CostModel{DataBytes: 1000, DiskDur: 10 * time.Second}
	tr := CompleteBinary(2)
	p := NewPlacement(tr, []netmodel.HostID{4, 1}, 2)
	for i := 0; i < 20; i++ {
		ev := m.Evaluate(p, uniformBW(1000))
		if ev.Bottleneck != 10 || ev.BottleneckHost != 1 {
			t.Fatalf("bottleneck = %v at h%d, want 10 at h1", ev.Bottleneck, ev.BottleneckHost)
		}
	}
}

// TestEvaluateBeyondStackHosts: host ids past the stack-held loads score
// exactly as the same placement relabelled onto small ids.
func TestEvaluateBeyondStackHosts(t *testing.T) {
	m := CostModel{Startup: 50 * time.Millisecond, DataBytes: 1000, DiskDur: time.Second, ComputeDur: time.Second}
	tr := CompleteBinary(4)
	small := m.Evaluate(NewPlacement(tr, []netmodel.HostID{0, 1, 2, 3}, 4), uniformBW(700))
	large := m.Evaluate(NewPlacement(tr, []netmodel.HostID{100, 101, 102, 103}, 104), uniformBW(700))
	if small.Cost != large.Cost || small.CriticalPath != large.CriticalPath ||
		small.Bottleneck != large.Bottleneck || large.BottleneckHost != small.BottleneckHost+100 {
		t.Errorf("hosts 100-104 score %+v, hosts 0-4 score %+v", large, small)
	}
}

func TestEvaluateDownloadAll(t *testing.T) {
	// 2 servers, all ops at client: path = server -> client edge, then a
	// co-located op, then a free op->client edge.
	tr := CompleteBinary(2)
	sh, ch := DefaultHostAssignment(2)
	p := NewPlacement(tr, sh, ch)
	ev := simpleModel.Evaluate(p, uniformBW(1000))
	// Each server->op edge costs 1s (1000B at 1000B/s); op->client is local.
	// The critical path is one edge (1s); the client NIC carries both
	// transfers (2s) and is the bottleneck.
	if math.Abs(ev.CriticalPath-1.0) > 1e-12 {
		t.Errorf("critical path = %v, want 1.0", ev.CriticalPath)
	}
	if math.Abs(ev.Bottleneck-2.0) > 1e-12 || ev.BottleneckHost != 2 {
		t.Errorf("bottleneck = %v at h%d, want 2.0 at h2", ev.Bottleneck, ev.BottleneckHost)
	}
	if math.Abs(ev.Cost-2.0) > 1e-12 {
		t.Errorf("cost = %v, want 2.0", ev.Cost)
	}
	if len(ev.Path) != 3 { // client, op, server
		t.Errorf("path = %v", ev.Path)
	}
	ops := ev.CriticalOperators(tr)
	if len(ops) != 1 {
		t.Errorf("critical operators = %v", ops)
	}
}

func TestEvaluatePicksLongestBranch(t *testing.T) {
	tr := CompleteBinary(2)
	sh, ch := DefaultHostAssignment(2)
	p := NewPlacement(tr, sh, ch)
	// Server 0's link is 10x slower: critical path must go through server 0.
	bw := func(a, b netmodel.HostID) trace.Bandwidth {
		if a == 0 || b == 0 {
			return 100
		}
		return 1000
	}
	ev := simpleModel.Evaluate(p, bw)
	leaf := ev.Path[len(ev.Path)-1]
	if tr.Node(leaf).ServerIndex != 0 {
		t.Errorf("critical path ends at server %d, want 0", tr.Node(leaf).ServerIndex)
	}
	if math.Abs(ev.CriticalPath-10.0) > 1e-12 {
		t.Errorf("critical path = %v, want 10.0", ev.CriticalPath)
	}
	// Client NIC serialises both transfers: 10s + 1s.
	if math.Abs(ev.Cost-11.0) > 1e-12 {
		t.Errorf("cost = %v, want 11.0", ev.Cost)
	}
}

func TestEvaluateMovingOperatorReducesCost(t *testing.T) {
	// Server 0's direct link to the client is terrible, but its link to
	// server 1 is fast: moving the operator to server 1 routes the data
	// around the slow link.
	tr := CompleteBinary(2)
	p := NewPlacement(tr, []netmodel.HostID{0, 1}, 2)
	slowDirect := func(a, b netmodel.HostID) trace.Bandwidth {
		if (a == 0 && b == 2) || (a == 2 && b == 0) {
			return 10 // slow server0<->client link
		}
		return 1000
	}
	op := tr.Operators()[0]
	atClient := simpleModel.Evaluate(p, slowDirect).Cost
	p.SetLoc(op, 1)
	atServer := simpleModel.Evaluate(p, slowDirect).Cost
	if atServer >= atClient {
		t.Errorf("moving op to server did not help: %v >= %v", atServer, atClient)
	}
}

func TestEvaluateIncludesComputeAndDisk(t *testing.T) {
	tr := CompleteBinary(2)
	sh, ch := DefaultHostAssignment(2)
	p := NewPlacement(tr, sh, ch)
	m := CostModel{DataBytes: 1000, ComputeDur: 2 * time.Second, DiskDur: 3 * time.Second}
	ev := m.Evaluate(p, uniformBW(1000))
	// disk 3s + edge 1s + compute 2s = 6s.
	if math.Abs(ev.Cost-6.0) > 1e-12 {
		t.Errorf("cost = %v, want 6.0", ev.Cost)
	}
}

func TestDefaultCostModelConstants(t *testing.T) {
	m := DefaultCostModel(128 * 1024)
	if m.Startup != 50*time.Millisecond {
		t.Errorf("startup = %v", m.Startup)
	}
	if m.ComputeDur != time.Duration(128*1024)*7*time.Microsecond {
		t.Errorf("compute = %v", m.ComputeDur)
	}
	wantDisk := float64(128*1024) / (3 * 1024 * 1024)
	if math.Abs(m.DiskDur.Seconds()-wantDisk) > 1e-9 {
		t.Errorf("disk = %v, want %vs", m.DiskDur, wantDisk)
	}
}

func TestCountingBandwidth(t *testing.T) {
	c := NewCountingBandwidth(uniformBW(100))
	c.Bandwidth(0, 1)
	c.Bandwidth(1, 0) // same link
	c.Bandwidth(0, 2)
	if got := c.DistinctLinks(); got != 2 {
		t.Errorf("DistinctLinks = %d, want 2", got)
	}
}

func TestPlacementBasics(t *testing.T) {
	tr := CompleteBinary(4)
	sh, ch := DefaultHostAssignment(4)
	p := NewPlacement(tr, sh, ch)
	if p.ClientHost() != 4 {
		t.Errorf("client host = %d", p.ClientHost())
	}
	for _, op := range tr.Operators() {
		if p.Loc(op) != 4 {
			t.Errorf("op %d not at client", op)
		}
	}
	q := p.Clone()
	q.SetLoc(tr.Operators()[0], 1)
	if p.Equal(q) {
		t.Error("Clone shares storage")
	}
	diff := p.Diff(q)
	if len(diff) != 1 || diff[0] != tr.Operators()[0] {
		t.Errorf("Diff = %v", diff)
	}
	if !p.Equal(p.Clone()) {
		t.Error("Equal(self clone) = false")
	}
	hosts := p.Hosts()
	if len(hosts) != 5 {
		t.Errorf("Hosts = %v", hosts)
	}
	if got := len(p.Locations()); got != tr.NumNodes() {
		t.Errorf("Locations len = %d", got)
	}
	if p.String() == "" {
		t.Error("String empty")
	}
}

func TestPlacementValidation(t *testing.T) {
	tr := CompleteBinary(2)
	t.Run("wrong server count", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		NewPlacement(tr, []netmodel.HostID{0}, 1)
	})
	t.Run("move server", func(t *testing.T) {
		sh, ch := DefaultHostAssignment(2)
		p := NewPlacement(tr, sh, ch)
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		p.SetLoc(tr.Servers()[0], 1)
	})
}

func TestEdgesVisitsAll(t *testing.T) {
	tr := CompleteBinary(4)
	sh, ch := DefaultHostAssignment(4)
	p := NewPlacement(tr, sh, ch)
	edges := 0
	p.Edges(func(c, par NodeID, from, to netmodel.HostID) { edges++ })
	// 4 server->op + 2 op->op + 1 op->client = 7.
	if edges != 7 {
		t.Errorf("edges = %d, want 7", edges)
	}
}

// Property: the critical path cost is an upper bound on every root-to-leaf
// path cost, and moving any single operator to the client host never makes
// Evaluate panic or return NaN.
func TestEvaluateProperty(t *testing.T) {
	prop := func(seed int64, servers uint8, leftDeep bool) bool {
		s := int(servers%14) + 2
		var tr *Tree
		if leftDeep {
			tr = LeftDeep(s)
		} else {
			tr = CompleteBinary(s)
		}
		sh, ch := DefaultHostAssignment(s)
		p := NewPlacement(tr, sh, ch)
		rng := rand.New(rand.NewSource(seed))
		// Random placement.
		for _, op := range tr.Operators() {
			p.SetLoc(op, netmodel.HostID(rng.Intn(s+1)))
		}
		// Random symmetric bandwidths.
		bwMap := map[[2]netmodel.HostID]trace.Bandwidth{}
		bw := func(a, b netmodel.HostID) trace.Bandwidth {
			k := [2]netmodel.HostID{a, b}
			if a > b {
				k = [2]netmodel.HostID{b, a}
			}
			v, ok := bwMap[k]
			if !ok {
				v = trace.Bandwidth(rng.Float64()*100000 + 1)
				bwMap[k] = v
			}
			return v
		}
		m := DefaultCostModel(128 * 1024)
		ev := m.Evaluate(p, bw)
		if math.IsNaN(ev.Cost) || ev.Cost <= 0 {
			return false
		}
		// Path must start at client and end at a server.
		if ev.Path[0] != tr.ClientNode() || tr.Node(ev.Path[len(ev.Path)-1]).Kind != Server {
			return false
		}
		// Check the path cost dominates every leaf-to-root chain.
		for _, leaf := range tr.Servers() {
			cost := m.DiskDur.Seconds()
			cur := leaf
			for cur != tr.ClientNode() {
				par := tr.Node(cur).Parent
				cost += m.EdgeCost(p.Loc(cur), p.Loc(par), bw)
				if tr.Node(par).Kind == Operator {
					cost += m.ComputeDur.Seconds()
				}
				cur = par
			}
			if cost > ev.Cost+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
