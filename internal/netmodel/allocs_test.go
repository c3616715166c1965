//go:build !race

package netmodel

import (
	"math"
	"testing"
	"time"

	"wadc/internal/sim"
	"wadc/internal/trace"
)

// TestHotPathAllocs pins the exact allocations per op of the netmodel hot
// paths: one 16 KB transfer of the NetTransfer benchmarks, with and without
// a telemetry sink, and one TruthWindow read. A transfer row runs many
// transfers on one kernel and floors the per-transfer average, which leaves
// out building the kernel and its two processes. The race detector
// allocates on its own, so this file is not built under -race.
func TestHotPathAllocs(t *testing.T) {
	const transfers = 1000
	truth := NewNetwork(sim.NewKernel())
	a, b := truth.AddHost("a"), truth.AddHost("b")
	truth.SetLink(a.ID(), b.ID(), trace.New("step", 10*sim.Second, []trace.Bandwidth{100, 300}))
	transfer := func(opts ...sim.Option) func(*testing.T) {
		return func(t *testing.T) {
			if err := transferRig(transfers, opts...).Run(); err != nil {
				t.Fatalf("Run: %v", err)
			}
		}
	}
	for _, c := range []struct {
		name string
		ops  int // ops per call of run
		run  func(*testing.T)
		want float64
	}{
		{"NetTransfer", transfers, transfer(), 4},
		{"NetTransferTelemetry", transfers, transfer(sim.WithTelemetry(nullSink{})), 4},
		{"TruthWindow", 1, func(*testing.T) { truth.TruthWindow(0, 1, 5*sim.Second, 10*time.Second) }, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			total := testing.AllocsPerRun(5, func() { c.run(t) })
			if got := math.Floor(total / float64(c.ops)); got != c.want {
				t.Errorf("%v allocs/op (%v over %d ops), want %v", got, total, c.ops, c.want)
			}
		})
	}
}
