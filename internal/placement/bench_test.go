package placement

import (
	"fmt"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/plan"
	"wadc/internal/trace"
)

var benchPlacement *plan.Placement

// BenchmarkOneShotOptimize runs the one-shot optimiser from download-all on
// a complete binary tree over 9, 17 and 33 hosts (8, 16 and 32 servers plus
// the client), every host a candidate site, on a fixed uneven bandwidth
// matrix under which the optimiser adopts 1, 5 and 8 moves.
func BenchmarkOneShotOptimize(b *testing.B) {
	for _, servers := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("hosts=%d", servers+1), func(b *testing.B) {
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
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchPlacement = OneShotOptimize(initial, hosts, model, bw)
			}
		})
	}
}
