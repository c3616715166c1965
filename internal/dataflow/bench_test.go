package dataflow

import (
	"testing"

	"wadc/internal/telemetry"
)

type nullSink struct{}

func (nullSink) Emit(telemetry.Event) {}

// runPipeline runs one complete 4-server, 8-iteration demand-driven
// pipeline: demands, disk reads, transfers, composes, delivery. The
// benchmarks below and TestHotPathAllocs run it as one op.
func runPipeline(tb testing.TB, sink telemetry.Sink) {
	r := newRig(4, 8, 64*1024, 100*1024)
	if sink != nil {
		r.k.AddSink(sink)
	}
	e := r.engine(nil)
	e.Start()
	if err := r.k.Run(); err != nil {
		tb.Fatalf("Run: %v", err)
	}
	if !e.Completed() {
		tb.Fatal("engine did not complete")
	}
}

func benchPipeline(b *testing.B, sink telemetry.Sink) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runPipeline(b, sink)
	}
}

func BenchmarkDataflowPipeline(b *testing.B) {
	benchPipeline(b, nil)
}

func BenchmarkDataflowPipelineTelemetry(b *testing.B) {
	benchPipeline(b, nullSink{})
}
