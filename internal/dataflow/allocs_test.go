//go:build !race

package dataflow

import (
	"testing"

	"wadc/internal/telemetry"
)

// TestHotPathAllocs pins the exact allocations of one whole pipeline run,
// the op of the DataflowPipeline benchmarks: 1405 without telemetry and
// 1407 with a sink attached. A change anywhere on the run's path through
// the kernel, network, monitor or engine moves these counts; one that moves
// them on purpose updates them here, together with its //lint:allocbudget
// annotations. The race detector allocates on its own, so this file is not
// built under -race.
func TestHotPathAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		sink telemetry.Sink
		want float64
	}{
		{"DataflowPipeline", nil, 1405},
		{"DataflowPipelineTelemetry", nullSink{}, 1407},
	} {
		t.Run(c.name, func(t *testing.T) {
			if got := testing.AllocsPerRun(20, func() { runPipeline(t, c.sink) }); got != c.want {
				t.Errorf("%v allocs/op, want %v", got, c.want)
			}
		})
	}
}
