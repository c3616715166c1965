package monitor

import (
	"fmt"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// BenchmarkMonitorPiggyback measures one BeforeSend + AfterDeliver pair on
// a system whose every cache holds every host pair (36 pairs at 9 hosts, 528
// at 33). Each op first records one newer measurement at the sender, as the
// passive measurement of a large transfer does in a run, so every send
// attaches a snapshot of a changed top list.
func BenchmarkMonitorPiggyback(b *testing.B) {
	for _, hosts := range []int{9, 33} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			sys := bareSystem(hosts, DefaultPiggybackBudget/DefaultEntrySize)
			at := sim.Time(0)
			for v := 0; v < hosts; v++ {
				c := sys.Cache(netmodel.HostID(v))
				for a := 0; a < hosts; a++ {
					for c2 := a + 1; c2 < hosts; c2++ {
						at++
						c.Record(netmodel.HostID(a), netmodel.HostID(c2), trace.Bandwidth(1000+a*c2), at, ProvFreshCache)
					}
				}
			}
			msgs := make([]netmodel.Message, hosts)
			for h := range msgs {
				msgs[h] = netmodel.Message{Src: netmodel.HostID(h), Dst: netmodel.HostID((h + 1) % hosts)}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				msg := &msgs[i%hosts]
				at++
				sys.Cache(msg.Src).Record(msg.Src, msg.Dst, trace.Bandwidth(i), at, ProvFreshCache)
				sys.BeforeSend(msg)
				sys.AfterDeliver(msg, 0)
			}
		})
	}
}
