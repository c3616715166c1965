package monitor

import (
	"fmt"
	"testing"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// runOp runs op once per benchmark iteration, numbering the calls from 0.
// TestHotPathAllocs pins the same ops.
func runOp(b *testing.B, op func(i int)) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// piggybackOp is one BeforeSend + AfterDeliver pair on a system whose every
// cache holds every host pair (36 pairs at 9 hosts, 528 at 33). Each op
// first records one newer measurement at the sender, as the passive
// measurement of a large transfer does in a run, so every send attaches a
// snapshot of a changed top list.
func piggybackOp(hosts int) func(i int) {
	sys, at := filledSystem(hosts)
	msgs := make([]netmodel.Message, hosts)
	for h := range msgs {
		msgs[h] = netmodel.Message{Src: netmodel.HostID(h), Dst: netmodel.HostID((h + 1) % hosts)}
	}
	return func(i int) {
		msg := &msgs[i%hosts]
		at++
		sys.Cache(msg.Src).Record(msg.Src, msg.Dst, trace.Bandwidth(i), at, ProvFreshCache)
		sys.BeforeSend(msg)
		sys.AfterDeliver(msg, 0)
	}
}

func BenchmarkMonitorPiggyback(b *testing.B) {
	for _, hosts := range []int{9, 33} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			runOp(b, piggybackOp(hosts))
		})
	}
}

// filledSystem is a bare system over n hosts whose every cache holds every
// host pair, each measured at its own time; it returns the last time used.
func filledSystem(hosts int) (*System, sim.Time) {
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
	return sys, at
}

// benchPair returns the i-th of a sequence of distinct-host pairs that
// cycles through every pair of n hosts.
func benchPair(i, n int) (netmodel.HostID, netmodel.HostID) {
	return netmodel.HostID(i % n), netmodel.HostID((i + 1 + i/n%(n-1)) % n)
}

// mergeOp is one BeforeSend + AfterDeliver pair between a fixed sender and
// receiver. The receiver merged the sender's previous snapshot, and the
// sender recorded one newer measurement since, so all but one of the 64
// piggybacked entries are already known to the receiver.
func mergeOp(hosts int) func(i int) {
	sys, at := filledSystem(hosts)
	msg := &netmodel.Message{Src: 0, Dst: 1}
	sys.BeforeSend(msg)
	sys.AfterDeliver(msg, 0)
	return func(i int) {
		at++
		sys.Cache(0).Record(0, netmodel.HostID(2+i%(hosts-2)), trace.Bandwidth(i), at, ProvFreshCache)
		sys.BeforeSend(msg)
		sys.AfterDeliver(msg, 0)
	}
}

func BenchmarkMonitorMerge(b *testing.B) {
	for _, hosts := range []int{9, 33} {
		b.Run(fmt.Sprintf("hosts=%d", hosts), func(b *testing.B) {
			runOp(b, mergeOp(hosts))
		})
	}
}

// recordHosts is the size of the full cache the Record and Lookup ops use.
const recordHosts = 33

// recordNewerOp records a newer measurement of a pair, which moves it to
// the front of the top list.
func recordNewerOp() func(i int) {
	sys, at := filledSystem(recordHosts)
	c := sys.Cache(0)
	return func(i int) {
		at++
		x, y := benchPair(i, recordHosts)
		c.Record(x, y, trace.Bandwidth(i), at, ProvFreshCache)
	}
}

// recordStaleOp records a measurement no newer than the cached one, which
// Record rejects.
func recordStaleOp() func(i int) {
	sys, _ := filledSystem(recordHosts)
	c := sys.Cache(0)
	return func(i int) {
		x, y := benchPair(i, recordHosts)
		c.Record(x, y, trace.Bandwidth(i), 0, ProvFreshCache)
	}
}

// BenchmarkMonitorRecord measures Record on a full cache of 33 hosts.
func BenchmarkMonitorRecord(b *testing.B) {
	b.Run("newer", func(b *testing.B) { runOp(b, recordNewerOp()) })
	b.Run("stale", func(b *testing.B) { runOp(b, recordStaleOp()) })
}

var benchEntry Entry

// lookupOp is a fresh-entry Lookup on a full cache of 33 hosts.
func lookupOp() func(i int) {
	sys, _ := filledSystem(recordHosts)
	c := sys.Cache(0)
	return func(i int) {
		benchEntry, _ = c.Lookup(benchPair(i, recordHosts))
	}
}

func BenchmarkMonitorLookup(b *testing.B) {
	runOp(b, lookupOp())
}
