package plan

import (
	"fmt"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/trace"
)

var benchEvaluation Evaluation

// spreadPlacement places a complete binary tree over servers servers and
// the client with the operators spread across the hosts, so most edges are
// remote.
func spreadPlacement(servers int) *Placement {
	tr := CompleteBinary(servers)
	sh, ch := DefaultHostAssignment(servers)
	p := NewPlacement(tr, sh, ch)
	for i, op := range tr.Operators() {
		p.SetLoc(op, netmodel.HostID(i%(servers+1)))
	}
	return p
}

// evaluateOp scores one spread placement over servers servers with
// Evaluate. TestHotPathAllocs pins the same op.
func evaluateOp(servers int) func() {
	p := spreadPlacement(servers)
	model := DefaultCostModel(128 * 1024)
	bw := func(a, c netmodel.HostID) trace.Bandwidth {
		return trace.Bandwidth(10000 + 1000*int(a+c)%50000)
	}
	return func() { benchEvaluation = model.Evaluate(p, bw) }
}

// BenchmarkCostModelEvaluate scores one placement over 9, 17 and 33 hosts
// (8, 16 and 32 servers plus the client).
func BenchmarkCostModelEvaluate(b *testing.B) {
	for _, servers := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("hosts=%d", servers+1), func(b *testing.B) {
			op := evaluateOp(servers)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
