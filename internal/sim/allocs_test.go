//go:build !race

package sim

import (
	"math"
	"testing"

	"wadc/internal/obs"
)

// TestHotPathAllocs pins the exact allocations per round of the
// process-switch benchmarks: one pingPong round of hold, send and receive
// costs three allocations whether the kernel runs bare, with a live
// telemetry sink or with a perf recorder. Events are value structs handed
// straight to the sink, and every obs hook is a field write, an atomic or
// a region-clock switch, so neither observer may add one. The kernel and
// its two processes are built once per run; flooring the per-round average
// over many rounds leaves out that setup. The race detector allocates on
// its own, so this file is not built under -race.
func TestHotPathAllocs(t *testing.T) {
	const rounds = 1000
	for _, c := range []struct {
		name string
		opts []Option
		want float64
	}{
		{"SimProcessSwitch", nil, 3},
		{"SimProcessSwitchTelemetry", []Option{WithTelemetry(&countSink{})}, 3},
		{"SimProcessSwitchObserved", []Option{WithObserver(obs.NewRecorder())}, 3},
	} {
		t.Run(c.name, func(t *testing.T) {
			total := testing.AllocsPerRun(5, func() {
				k := NewKernel(c.opts...)
				pingPong(k, rounds)
				if err := k.Run(); err != nil {
					t.Fatalf("Run: %v", err)
				}
			})
			if got := math.Floor(total / rounds); got != c.want {
				t.Errorf("%v allocs/op (%v over %d rounds), want %v", got, total, rounds, c.want)
			}
		})
	}
}
