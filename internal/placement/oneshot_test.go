package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// cloneEvalOneShot is the optimiser in its plainest form: every candidate
// is a clone of the current placement scored by a full Evaluate. It is the
// reference OneShotOptimizeAudited must match.
func cloneEvalOneShot(initial *plan.Placement, hosts []netmodel.HostID, model plan.CostModel, bw plan.BandwidthFn, d Decision) *plan.Placement {
	cur := initial.Clone()
	first := model.Evaluate(cur, bw)
	d.Path(first.Cost, first.Path)
	curCost := first.Cost
	candidates := 0
	for round := 0; round < maxOneShotRounds; round++ {
		eval := model.Evaluate(cur, bw)
		bestCost := curCost
		var best *plan.Placement
		var bestOp plan.NodeID
		var bestFrom, bestTo netmodel.HostID
		for _, op := range eval.Path {
			if cur.Tree().Node(op).Kind != plan.Operator {
				continue
			}
			for _, h := range hosts {
				if h == cur.Loc(op) {
					continue
				}
				cand := cur.Clone()
				cand.SetLoc(op, h)
				c := model.Evaluate(cand, bw).Cost
				candidates++
				d.Candidate(op, cur.Loc(op), h, round, c, false)
				if c < bestCost-improvementEps {
					bestCost = c
					best = cand
					bestOp, bestFrom, bestTo = op, cur.Loc(op), h
				}
			}
		}
		if best == nil {
			break
		}
		d.Move(bestOp, bestFrom, bestTo, curCost-bestCost)
		cur = best
		curCost = bestCost
	}
	d.End(curCost, candidates)
	return cur
}

// lazyLinks draws each link's bandwidth from rng when it is first asked
// for, so the values a run sees depend on the order it queries links in,
// and lists the links in that order.
type lazyLinks struct {
	rng   *rand.Rand
	bw    map[[2]netmodel.HostID]trace.Bandwidth
	order [][2]netmodel.HostID
}

func (l *lazyLinks) fn(a, b netmodel.HostID) trace.Bandwidth {
	k := [2]netmodel.HostID{min(a, b), max(a, b)}
	v, ok := l.bw[k]
	if !ok {
		v = trace.Bandwidth(1024 * (1 + l.rng.Float64()*200))
		l.bw[k] = v
		l.order = append(l.order, k)
	}
	return v
}

// TestOneShotMatchesCloneEvaluate: on random instances, with bandwidths
// that depend on query order, OneShotOptimizeAudited returns the reference
// placement, emits the same decision record (path, every candidate with its
// cost, moves, end) and queries the same links in the same order.
func TestOneShotMatchesCloneEvaluate(t *testing.T) {
	type run func(*plan.Placement, []netmodel.HostID, plan.CostModel, plan.BandwidthFn, Decision) *plan.Placement
	moves := 0
	for seed := int64(0); seed < 40; seed++ {
		s := 2 + int(seed%15)
		tree := plan.CompleteBinary(s)
		if seed%3 == 2 {
			tree = plan.LeftDeep(s)
		}
		sh, ch := plan.DefaultHostAssignment(s)
		hosts := make([]netmodel.HostID, s+1)
		for i := range hosts {
			hosts[i] = netmodel.HostID(i)
		}
		model := plan.DefaultCostModel(128 * 1024)
		do := func(opt run) (*plan.Placement, *recSink, [][2]netmodel.HostID) {
			sink := &recSink{}
			var a Auditor
			a.Bind(sim.NewKernel(sim.WithTelemetry(sink)), "global")
			links := &lazyLinks{rng: rand.New(rand.NewSource(seed)), bw: map[[2]netmodel.HostID]trace.Bandwidth{}}
			got := opt(plan.NewPlacement(tree, sh, ch), hosts, model, links.fn, a.StartDecision(ch, -1))
			return got, sink, links.order
		}
		got, gotEvents, gotOrder := do(OneShotOptimizeAudited)
		want, wantEvents, wantOrder := do(cloneEvalOneShot)
		if !got.Equal(want) {
			t.Fatalf("seed %d: placement %s, reference %s", seed, got, want)
		}
		if !reflect.DeepEqual(gotEvents.events, wantEvents.events) {
			t.Fatalf("seed %d: decision record differs from the reference (%d vs %d events)", seed, len(gotEvents.events), len(wantEvents.events))
		}
		if !reflect.DeepEqual(gotOrder, wantOrder) {
			t.Fatalf("seed %d: links queried in order\n got %v\nwant %v", seed, gotOrder, wantOrder)
		}
		moves += len(gotEvents.ofKind(telemetry.KindDecisionMove))
	}
	if moves == 0 {
		t.Fatal("no instance moved an operator")
	}
}
