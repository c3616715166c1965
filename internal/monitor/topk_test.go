package monitor

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// bareSystem is a monitoring system over n hosts with no links: enough for
// Record, BeforeSend and AfterDeliver of messages below S_thres.
func bareSystem(n, budgetEntries int) *System {
	net := netmodel.NewNetwork(sim.NewKernel())
	for h := 0; h < n; h++ {
		net.AddHost(fmt.Sprint("h", h))
	}
	cfg := DefaultConfig()
	cfg.PiggybackBudget = budgetEntries * cfg.EntrySize
	if budgetEntries == 0 {
		cfg.PiggybackBudget = cfg.EntrySize / 2 // positive, but no entry fits
	}
	return NewSystem(net, cfg)
}

// refCache is the reference the incremental top list is checked against: a
// plain map with Record's keep-the-newer rule, sorted in full on demand.
type refCache map[pairKey]Entry

func (r refCache) record(e Entry) {
	if cur, ok := r[keyOf(e.A, e.B)]; ok && cur.At >= e.At {
		return
	}
	r[keyOf(e.A, e.B)] = e
}

func (r refCache) top(k int) []Entry {
	all := make([]Entry, 0, len(r))
	for _, e := range r {
		all = append(all, e)
	}
	slices.SortFunc(all, func(x, y Entry) int {
		switch {
		case newer(x, y):
			return -1
		case newer(y, x):
			return 1
		}
		return 0
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// TestTopKMatchesFullSort drives random Record, send, deliver and loss
// sequences, with many At ties and stale-fallback entries, and checks every
// published snapshot against a full sort of the sender's cache truncated to
// the budget, and every delivered snapshot against what it held at send
// time. Messages are delivered in random order, so one sender's snapshots
// overtake each other. A second system, whose caches merge by calling
// Record for every delivered entry, must end in the same state as the
// system under test, which skips entries the receiver already merged.
func TestTopKMatchesFullSort(t *testing.T) {
	provs := []Provenance{ProvFreshCache, ProvPiggyback, ProvStaleFallback}
	for _, hosts := range []int{9, 33} {
		for _, budget := range []int{0, 1, 2, 16, 64} {
			t.Run(fmt.Sprintf("hosts=%d/entries=%d", hosts, budget), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(hosts*100 + budget)))
				sys := bareSystem(hosts, budget)
				full := bareSystem(hosts, budget)
				ref := make([]refCache, hosts)
				for h := range ref {
					ref[h] = refCache{}
				}
				type inFlight struct {
					msg  *netmodel.Message
					snap *snapshot
					want []Entry
				}
				var flying []inFlight
				sends, skipped := 0, 0
				for step := 0; step < 4000; step++ {
					switch op := rng.Intn(10); {
					case op < 6:
						h := rng.Intn(hosts)
						a, b := rng.Intn(hosts), rng.Intn(hosts-1)
						if b >= a {
							b++
						}
						e := Entry{
							A: netmodel.HostID(a), B: netmodel.HostID(b),
							BW:   trace.Bandwidth(rng.Intn(1 << 20)),
							At:   sim.Time(rng.Intn(60)) * sim.Second,
							Prov: provs[rng.Intn(len(provs))],
						}
						sys.Cache(netmodel.HostID(h)).Record(e.A, e.B, e.BW, e.At, e.Prov)
						full.Cache(netmodel.HostID(h)).Record(e.A, e.B, e.BW, e.At, e.Prov)
						k := keyOf(e.A, e.B)
						e.A, e.B = k[0], k[1]
						ref[h].record(e)
					case op < 8:
						src, dst := rng.Intn(hosts), rng.Intn(hosts)
						msg := &netmodel.Message{Src: netmodel.HostID(src), Dst: netmodel.HostID(dst)}
						sys.BeforeSend(msg)
						want := ref[src].top(budget)
						snap, _ := msg.Piggyback.(*snapshot)
						var got []Entry
						if snap != nil {
							got = entriesOf(snap)
						}
						if len(want) == 0 && snap != nil {
							t.Fatalf("step %d: empty budget or cache piggybacked %d entries", step, len(got))
						}
						if !reflect.DeepEqual(got, want) && len(want) > 0 {
							t.Fatalf("step %d: host %d snapshot\n got %+v\nwant %+v", step, src, got, want)
						}
						sends++
						flying = append(flying, inFlight{msg, snap, slices.Clone(want)})
					case len(flying) > 0:
						i := rng.Intn(len(flying))
						f := flying[i]
						flying = slices.Delete(flying, i, i+1)
						if f.snap != nil && !reflect.DeepEqual(entriesOf(f.snap), f.want) {
							t.Fatalf("step %d: snapshot changed in flight\n got %+v\nwant %+v", step, entriesOf(f.snap), f.want)
						}
						if op == 8 {
							continue // lost: a crash or a cut link never delivers it
						}
						dst := sys.Cache(f.msg.Dst)
						if src := int(f.msg.Src); f.snap != nil && src < len(dst.merged) && f.snap.seq >= dst.merged[src] {
							for _, e := range f.snap.entries {
								if e.stamp <= dst.merged[src] {
									skipped++
								}
							}
						}
						sys.AfterDeliver(f.msg, 0)
						for _, e := range f.want {
							if e.Prov != ProvStaleFallback {
								e.Prov = ProvPiggyback
							}
							ref[f.msg.Dst].record(e)
							full.Cache(f.msg.Dst).Record(e.A, e.B, e.BW, e.At, e.Prov)
						}
					}
				}
				if sends == 0 {
					t.Fatal("no sends exercised")
				}
				if budget > 0 && skipped == 0 {
					t.Fatal("no merged entry was skipped")
				}
				for h := range ref {
					c := sys.Cache(netmodel.HostID(h))
					if fc := full.Cache(netmodel.HostID(h)); !slices.Equal(c.top, fc.top) || c.seq != fc.seq {
						t.Fatalf("host %d top list after skipping merges\n got %+v (seq %d)\nwant %+v (seq %d)", h, c.top, c.seq, fc.top, fc.seq)
					}
					if c.Len() != len(ref[h]) {
						t.Fatalf("host %d caches %d pairs, reference %d", h, c.Len(), len(ref[h]))
					}
					for _, want := range ref[h] {
						if got, ok := c.LookupAny(want.B, want.A); !ok || got != want {
							t.Fatalf("host %d holds %+v (ok=%v), reference %+v", h, got, ok, want)
						}
					}
				}
			})
		}
	}
}

// TestSnapshotNotRewrittenInFlight: the sender's cache changes while a
// message is held on the wire, and later sends retire and rewrite
// snapshots; the receiver must still merge what the cache held at send
// time. A snapshot left held by a lost message is never rewritten.
func TestSnapshotNotRewrittenInFlight(t *testing.T) {
	sys := bareSystem(4, 2)
	c := sys.Cache(0)
	c.Record(0, 1, 100, 1*sim.Second, ProvFreshCache)
	c.Record(0, 2, 200, 2*sim.Second, ProvFreshCache)
	atSend := []Entry{
		{A: 0, B: 2, BW: 200, At: 2 * sim.Second, Prov: ProvFreshCache},
		{A: 0, B: 1, BW: 100, At: 1 * sim.Second, Prov: ProvFreshCache},
	}

	held := &netmodel.Message{Src: 0, Dst: 1}
	lost := &netmodel.Message{Src: 0, Dst: 2}
	sys.BeforeSend(held)
	sys.BeforeSend(lost)
	for i := 0; i < 10; i++ {
		at := sim.Time(3+i) * sim.Second
		c.Record(1, 2, trace.Bandwidth(300+i), at, ProvFreshCache)
		c.Record(2, 3, trace.Bandwidth(400+i), at, ProvFreshCache)
		m := &netmodel.Message{Src: 0, Dst: 3}
		sys.BeforeSend(m)
		sys.AfterDeliver(m, 0)
	}
	for _, m := range []*netmodel.Message{held, lost} {
		if got := entriesOf(m.Piggyback.(*snapshot)); !reflect.DeepEqual(got, atSend) {
			t.Fatalf("in-flight snapshot rewritten:\n got %+v\nwant %+v", got, atSend)
		}
	}
	sys.AfterDeliver(held, 0)
	if held.Piggyback != nil {
		t.Error("delivered message still carries its snapshot")
	}
	for _, e := range atSend {
		got, ok := sys.Cache(1).LookupAny(e.A, e.B)
		if !ok || got.BW != e.BW || got.At != e.At || got.Prov != ProvPiggyback {
			t.Errorf("receiver holds %+v (ok=%v), want send-time %+v", got, ok, e)
		}
	}
	if _, ok := sys.Cache(1).LookupAny(1, 2); ok {
		t.Error("receiver merged an entry recorded after the send")
	}
}

// cutAt5s takes link (0,2) down 5 s in, while the first 64 KB transfer of
// TestSnapshotSurvivesCutTransfer is on the wire.
type cutAt5s struct{}

func (cutAt5s) HostDown(netmodel.HostID) bool { return false }

func (cutAt5s) CutDuring(a, b netmodel.HostID, from, until sim.Time) (sim.Time, bool) {
	at := 5 * sim.Second
	return at, a+b == 2 && a != b && from <= at && at < until
}

func (cutAt5s) Fate(netmodel.HostID, netmodel.HostID) netmodel.Fate { return netmodel.FateDeliver }

// TestSnapshotSurvivesCutTransfer runs the same check through Network.Send:
// one transfer is cut by a link outage and never delivered, another is
// delivered after the sender's cache changed during its hold.
func TestSnapshotSurvivesCutTransfer(t *testing.T) {
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	for i := 0; i < 3; i++ {
		net.AddHost(fmt.Sprint("h", i))
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			net.SetLink(netmodel.HostID(i), netmodel.HostID(j), trace.Constant("l", 1024))
		}
	}
	net.SetFaults(cutAt5s{})
	sys := NewSystem(net, DefaultConfig())
	c := sys.Cache(0)
	c.Record(1, 2, 777, 0, ProvFreshCache)

	k.Spawn("cut", func(p *sim.Proc) {
		net.Send(p, &netmodel.Message{Src: 0, Dst: 2, Port: "d", Size: 64 * 1024, Prio: sim.PriorityData})
	})
	k.Spawn("held", func(p *sim.Proc) {
		p.Hold(time.Second) // after the cut transfer took host 0's NIC
		net.Send(p, &netmodel.Message{Src: 0, Dst: 1, Port: "d", Size: 1024, Prio: sim.PriorityData})
	})
	k.Spawn("writer", func(p *sim.Proc) {
		for i := 1; i <= 10; i++ {
			p.Hold(time.Second)
			c.Record(1, 2, trace.Bandwidth(1000+i), p.Now(), ProvFreshCache)
			m := &netmodel.Message{Src: 0, Dst: 0, Port: "self"}
			sys.BeforeSend(m)
			sys.AfterDeliver(m, 0)
		}
	})
	k.Spawn("recv", func(p *sim.Proc) { net.Host(1).Port("d").Recv(p) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if _, _, cut := net.FaultCounts(); cut != 1 {
		t.Fatalf("cut transfers = %d, want 1", cut)
	}
	// The held send took host 0's NIC when the cut released it at 5 s and
	// was delivered about a second later; the writer advanced (1,2) at 6 s,
	// during that hold. The receiver must merge the value current at 5 s.
	got, ok := sys.Cache(1).LookupAny(1, 2)
	if !ok || got.At != 5*sim.Second || got.BW != 1005 {
		t.Errorf("receiver holds %+v (ok=%v), want the 5 s entry of BW 1005", got, ok)
	}
}
