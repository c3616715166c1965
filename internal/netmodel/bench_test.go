package netmodel

import (
	"testing"

	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

type nullSink struct{}

func (nullSink) Emit(telemetry.Event) {}

// transferRig builds a kernel that pushes n back-to-back 16 KB messages
// through a constant 1 MB/s link: NIC acquisition, bandwidth integration,
// delivery, and accounting are all on this path.
func transferRig(n int, opts ...sim.Option) *sim.Kernel {
	k := sim.NewKernel(opts...)
	net := NewNetwork(k)
	src := net.AddHost("src")
	dst := net.AddHost("dst")
	net.SetLink(src.ID(), dst.ID(), trace.Constant("link", 1024*1024))
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			net.Send(p, &Message{Src: src.ID(), Dst: dst.ID(), Port: "data", Size: 16 * 1024, Prio: sim.PriorityData})
		}
	})
	k.Spawn("recv", func(p *sim.Proc) {
		port := dst.Port("data")
		for i := 0; i < n; i++ {
			port.Recv(p)
		}
	})
	return k
}

func benchTransfers(b *testing.B, opts ...sim.Option) {
	b.ReportAllocs()
	k := transferRig(b.N, opts...)
	// 16 KB per op: the testing package derives MB/s from this.
	b.SetBytes(16 * 1024)
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatalf("Run: %v", err)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(k.Scheduled())/secs, "events/s")
	}
}

func BenchmarkNetTransfer(b *testing.B) {
	benchTransfers(b)
}

func BenchmarkNetTransferTelemetry(b *testing.B) {
	benchTransfers(b, sim.WithTelemetry(nullSink{}))
}
