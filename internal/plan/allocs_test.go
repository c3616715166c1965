//go:build !race

package plan

import "testing"

// TestHotPathAllocs pins the exact allocations per op of the cost model:
// Evaluate returns its per-node costs and its critical path in two fresh
// slices at every size up to 64 hosts, while a Scorer scores a placement and finds its critical path
// in buffers it owns, allocating nothing. The race detector allocates on
// its own, so this file is not built under -race.
func TestHotPathAllocs(t *testing.T) {
	p := spreadPlacement(32)
	sc := DefaultCostModel(128*1024).NewScorer(p, nil, uniformBW(1000))
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"CostModelEvaluate/hosts=9", evaluateOp(8), 2},
		{"CostModelEvaluate/hosts=17", evaluateOp(16), 2},
		{"CostModelEvaluate/hosts=33", evaluateOp(32), 2},
		{"ScorerScore/hosts=33", func() { sc.Score(p) }, 0},
		{"ScorerCriticalPath/hosts=33", func() { sc.CriticalPath(p) }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(100, c.op); got != c.want {
				t.Errorf("%v allocs/op, want %v", got, c.want)
			}
		})
	}
}
