//go:build !race

package monitor

import "testing"

// TestHotPathAllocs pins the exact allocations per op of every monitor
// benchmark: piggybacking, merging, recording and looking up a measurement
// all reuse the caches' fixed buffers and the shared snapshots, so none of
// them may allocate. The first send from each host allocates its snapshot
// buffers (three allocations per host); a thousand runs keep that below one
// per op, as the benchmarks' many iterations do. The race detector
// allocates on its own, so this file is not built under -race.
func TestHotPathAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		op   func(i int)
		want float64
	}{
		{"MonitorPiggyback/hosts=9", piggybackOp(9), 0},
		{"MonitorPiggyback/hosts=33", piggybackOp(33), 0},
		{"MonitorMerge/hosts=9", mergeOp(9), 0},
		{"MonitorMerge/hosts=33", mergeOp(33), 0},
		{"MonitorRecord/newer", recordNewerOp(), 0},
		{"MonitorRecord/stale", recordStaleOp(), 0},
		{"MonitorLookup", lookupOp(), 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			i := 0
			if got := testing.AllocsPerRun(1000, func() { c.op(i); i++ }); got != c.want {
				t.Errorf("%v allocs/op, want %v", got, c.want)
			}
		})
	}
}
