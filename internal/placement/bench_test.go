package placement

import (
	"fmt"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/trace"
)

var benchPlacement *plan.Placement

// oneShotOp runs the one-shot optimiser from download-all on a complete
// binary tree over servers servers and the client, every host a candidate
// site, on a fixed uneven bandwidth matrix under which the optimiser adopts
// 1, 5 and 8 moves at 8, 16 and 32 servers. TestHotPathAllocs pins the same
// op.
func oneShotOp(servers int) func() {
	tree := plan.CompleteBinary(servers)
	sh, ch := plan.DefaultHostAssignment(servers)
	initial := plan.NewPlacement(tree, sh, ch)
	hosts := make([]netmodel.HostID, servers+1)
	for i := range hosts {
		hosts[i] = netmodel.HostID(i)
	}
	model := plan.DefaultCostModel(128 * 1024)
	bw := func(a, c netmodel.HostID) trace.Bandwidth {
		return trace.Bandwidth(8*1024 + (int(a)*7919+int(c)*7919+int(a*c)*104729)%(512*1024))
	}
	return func() { benchPlacement = OneShotOptimize(initial, hosts, model, bw) }
}

// BenchmarkOneShotOptimize runs oneShotOp over 9, 17 and 33 hosts.
func BenchmarkOneShotOptimize(b *testing.B) {
	for _, servers := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("hosts=%d", servers+1), func(b *testing.B) {
			op := oneShotOp(servers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
