//go:build !race

package placement

import "testing"

// TestHotPathAllocs pins the exact allocations per op of the one-shot
// optimiser: it clones the initial placement and builds one plan.Scorer up
// front, then scores every candidate without allocating, so a search costs
// four allocations at every size. The race
// detector allocates on its own, so this file is not built under -race.
func TestHotPathAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func()
		want float64
	}{
		{"OneShotOptimize/hosts=9", oneShotOp(8), 4},
		{"OneShotOptimize/hosts=17", oneShotOp(16), 4},
		{"OneShotOptimize/hosts=33", oneShotOp(32), 4},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(10, c.op); got != c.want {
				t.Errorf("%v allocs/op, want %v", got, c.want)
			}
		})
	}
}
