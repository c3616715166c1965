package monitor

import (
	"testing"
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// rig is a 3-host network with constant links and a monitoring system.
type rig struct {
	k   *sim.Kernel
	net *netmodel.Network
	sys *System
	h   []*netmodel.Host
}

func newRig(t *testing.T, cfg Config, bws ...trace.Bandwidth) *rig {
	t.Helper()
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	r := &rig{k: k, net: net}
	for i := 0; i < 3; i++ {
		r.h = append(r.h, net.AddHost(string(rune('a'+i))))
	}
	idx := 0
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			bw := trace.Bandwidth(16 * 1024)
			if idx < len(bws) {
				bw = bws[idx]
			}
			net.SetLink(r.h[i].ID(), r.h[j].ID(), trace.Constant("l", bw))
			idx++
		}
	}
	r.sys = NewSystem(net, cfg)
	return r
}

// piggyback returns the entries BeforeSend attaches to a message from src.
func piggyback(sys *System, src netmodel.HostID) []Entry {
	msg := &netmodel.Message{Src: src, Dst: src}
	sys.BeforeSend(msg)
	snap, _ := msg.Piggyback.(*snapshot)
	if snap == nil {
		return nil
	}
	return snap.entries
}

func (r *rig) send(src, dst netmodel.HostID, size int64) {
	r.k.Spawn("send", func(p *sim.Proc) {
		r.net.Send(p, &netmodel.Message{Src: src, Dst: dst, Port: "d", Size: size, Prio: sim.PriorityData})
	})
	r.k.Spawn("recv", func(p *sim.Proc) {
		r.net.Host(dst).Port("d").Recv(p)
	})
	if err := r.k.Run(); err != nil {
		panic(err)
	}
}

func TestPassiveMeasurementBothEnds(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.send(0, 1, 16*1024)
	for _, h := range []netmodel.HostID{0, 1} {
		e, ok := r.sys.Cache(h).LookupAny(0, 1)
		if !ok {
			t.Fatalf("host %d has no measurement", h)
		}
		// 16KB at 16KB/s: measured bandwidth should be ~16KB/s.
		if e.BW < 16*1000 || e.BW > 17*1024 {
			t.Errorf("host %d measured %v", h, e.BW)
		}
	}
	if r.sys.PassiveMeasurements() != 1 {
		t.Errorf("passive count = %d", r.sys.PassiveMeasurements())
	}
}

func TestSmallMessagesNotMeasured(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.send(0, 1, 1024) // below S_thres
	if _, ok := r.sys.Cache(0).LookupAny(0, 1); ok {
		t.Error("sub-threshold transfer was measured")
	}
	if r.sys.PassiveMeasurements() != 0 {
		t.Errorf("passive count = %d", r.sys.PassiveMeasurements())
	}
}

func TestCacheTimeout(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.sys.Cache(0).Record(0, 1, 1000, 0, ProvFreshCache)
	// Fresh at t=40s, stale at t=40s+1.
	r.k.After(DefaultTThres, func() {
		if _, ok := r.sys.Cache(0).Lookup(0, 1); !ok {
			t.Error("entry stale at exactly T_thres")
		}
	})
	r.k.After(DefaultTThres+time.Second, func() {
		if _, ok := r.sys.Cache(0).Lookup(0, 1); ok {
			t.Error("entry fresh after T_thres")
		}
		if _, ok := r.sys.Cache(0).LookupAny(0, 1); !ok {
			t.Error("LookupAny dropped stale entry")
		}
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRecordKeepsNewest(t *testing.T) {
	r := newRig(t, DefaultConfig())
	c := r.sys.Cache(0)
	c.Record(1, 0, 100, 10*sim.Second, ProvFreshCache) // reversed pair order canonicalised
	c.Record(0, 1, 50, 5*sim.Second, ProvFreshCache)   // older: ignored
	e, ok := c.LookupAny(0, 1)
	if !ok || e.BW != 100 || e.At != 10*sim.Second {
		t.Errorf("entry = %+v, ok=%v", e, ok)
	}
	c.Record(0, 1, 70, 20*sim.Second, ProvFreshCache) // newer: replaces
	e, _ = c.LookupAny(0, 1)
	if e.BW != 70 {
		t.Errorf("entry not replaced: %+v", e)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestPiggybackPropagation(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Host 0 knows about link (1,2); a message 0->1 should carry it there.
	r.sys.Cache(0).Record(1, 2, 12345, 0, ProvFreshCache)
	r.send(0, 1, 1024)
	e, ok := r.sys.Cache(1).LookupAny(1, 2)
	if !ok || e.BW != 12345 {
		t.Errorf("piggyback not merged: %+v ok=%v", e, ok)
	}
}

func TestPiggybackKeepsNewerAtReceiver(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.sys.Cache(1).Record(1, 2, 999, 5*sim.Second, ProvFreshCache)
	r.sys.Cache(0).Record(1, 2, 111, 0, ProvFreshCache) // older info at sender
	r.send(0, 1, 1024)
	e, _ := r.sys.Cache(1).LookupAny(1, 2)
	if e.BW != 999 {
		t.Errorf("older piggyback overwrote newer entry: %+v", e)
	}
}

func TestPiggybackBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PiggybackBudget = 32 // room for exactly 2 entries of 16 bytes
	r := newRig(t, cfg)
	c := r.sys.Cache(0)
	c.Record(0, 1, 1, 1*sim.Second, ProvFreshCache)
	c.Record(0, 2, 2, 2*sim.Second, ProvFreshCache)
	c.Record(1, 2, 3, 3*sim.Second, ProvFreshCache)
	entries := piggyback(r.sys, 0)
	if len(entries) != 2 {
		t.Fatalf("piggybacked %d entries", len(entries))
	}
	// Newest first: (1,2)@3s then (0,2)@2s.
	if entries[0].At != 3*sim.Second || entries[1].At != 2*sim.Second {
		t.Errorf("entries = %+v", entries)
	}
}

func TestEstimateCacheHit(t *testing.T) {
	r := newRig(t, DefaultConfig())
	r.sys.Cache(0).Record(0, 1, 4242, 0, ProvFreshCache)
	var got trace.Bandwidth
	r.k.Spawn("q", func(p *sim.Proc) {
		got = r.sys.Estimate(p, 0, 0, 1)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 4242 {
		t.Errorf("Estimate = %v", got)
	}
	if r.sys.Probes() != 0 {
		t.Errorf("probe performed despite fresh cache")
	}
	if r.sys.CacheHitRate() != 1 {
		t.Errorf("hit rate = %v", r.sys.CacheHitRate())
	}
}

func TestEstimateProbesOnMiss(t *testing.T) {
	r := newRig(t, DefaultConfig(), 16*1024)
	var got trace.Bandwidth
	var elapsed sim.Time
	r.k.Spawn("q", func(p *sim.Proc) {
		got = r.sys.Estimate(p, 0, 0, 1)
		elapsed = p.Now()
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 16*1024 {
		t.Errorf("Estimate = %v, want ground truth 16KB/s", got)
	}
	if r.sys.Probes() != 1 {
		t.Errorf("probes = %d", r.sys.Probes())
	}
	// Timed probe: 2 * (50ms + 1s) = 2.1s.
	if elapsed != sim.FromDuration(2100*time.Millisecond) {
		t.Errorf("probe took %v, want 2.1s", elapsed)
	}
	// Result cached at viewer and both endpoints.
	for _, h := range []netmodel.HostID{0, 1} {
		if _, ok := r.sys.Cache(h).LookupAny(0, 1); !ok {
			t.Errorf("probe result not cached at host %d", h)
		}
	}
}

func TestEstimateOracleModeInstant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProbeMode = ProbeOracle
	r := newRig(t, cfg, 5000)
	var got trace.Bandwidth
	var elapsed sim.Time
	r.k.Spawn("q", func(p *sim.Proc) {
		got = r.sys.Estimate(p, 2, 0, 1) // viewer not an endpoint
		elapsed = p.Now()
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 5000 || elapsed != 0 {
		t.Errorf("oracle estimate = %v at %v", got, elapsed)
	}
	if _, ok := r.sys.Cache(2).LookupAny(0, 1); !ok {
		t.Error("oracle probe not cached at viewer")
	}
}

func TestEstimateLocalIsHuge(t *testing.T) {
	r := newRig(t, DefaultConfig())
	var got trace.Bandwidth
	r.k.Spawn("q", func(p *sim.Proc) {
		got = r.sys.Estimate(p, 0, 1, 1)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != localBandwidth {
		t.Errorf("local estimate = %v", got)
	}
}

func TestConfigDefaultsFilled(t *testing.T) {
	r := newRig(t, Config{})
	cfg := r.sys.Config()
	if cfg.SThres != DefaultSThres || cfg.TThres != DefaultTThres ||
		cfg.PiggybackBudget != DefaultPiggybackBudget || cfg.EntrySize != DefaultEntrySize ||
		cfg.ProbeSize != DefaultProbeSize {
		t.Errorf("zero config not defaulted: %+v", cfg)
	}
}

func TestPiggybackOnLocalDelivery(t *testing.T) {
	// Local (same-host) messages still pass through the observer without
	// being measured.
	r := newRig(t, DefaultConfig())
	r.sys.Cache(0).Record(1, 2, 77, 0, ProvFreshCache)
	r.k.Spawn("s", func(p *sim.Proc) {
		r.net.Send(p, &netmodel.Message{Src: 0, Dst: 0, Port: "x", Size: 1 << 20, Prio: sim.PriorityData})
	})
	r.k.Spawn("r", func(p *sim.Proc) {
		r.net.Host(0).Port("x").Recv(p)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if r.sys.PassiveMeasurements() != 0 {
		t.Error("local delivery was passively measured")
	}
}

// TestEstimateProvenance pins the attribution EstimateDetail reports for
// every way an estimate can be served: same-host lookups are "local", fresh
// locally-measured entries "fresh-cache", merged piggyback entries
// "piggyback", probe-timeout bounds "stale-fallback", and cache misses cost
// a "probe".
func TestEstimateProvenance(t *testing.T) {
	r := newRig(t, DefaultConfig())
	// Host 0 measured (0,1) itself; host 0 also learned (1,2) via piggyback
	// from host 1.
	r.sys.Cache(0).Record(0, 1, 5000, 0, ProvFreshCache)
	r.sys.Cache(1).Record(1, 2, 7000, 0, ProvFreshCache)
	r.send(1, 0, 1024) // piggybacks host 1's cache onto host 0
	if e, ok := r.sys.Cache(0).LookupAny(1, 2); !ok || e.Prov != ProvPiggyback {
		t.Fatalf("merged entry provenance = %+v ok=%v, want piggyback", e, ok)
	}

	type obs struct {
		bw   trace.Bandwidth
		info EstimateInfo
	}
	var local, fresh, piggy, probe obs
	r.k.Spawn("q", func(p *sim.Proc) {
		local.bw, local.info = r.sys.EstimateDetail(p, 0, 1, 1)
		fresh.bw, fresh.info = r.sys.EstimateDetail(p, 0, 0, 1)
		piggy.bw, piggy.info = r.sys.EstimateDetail(p, 0, 1, 2)
		probe.bw, probe.info = r.sys.EstimateDetail(p, 0, 0, 2) // miss: probes
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if local.info.Prov != ProvLocal || local.bw != localBandwidth {
		t.Errorf("local = %+v", local)
	}
	if fresh.info.Prov != ProvFreshCache || fresh.bw != 5000 || fresh.info.ProbeCost != 0 {
		t.Errorf("fresh = %+v", fresh)
	}
	if piggy.info.Prov != ProvPiggyback || piggy.bw != 7000 || piggy.info.ProbeCost != 0 {
		t.Errorf("piggy = %+v", piggy)
	}
	if probe.info.Prov != ProvProbe || probe.info.ProbeCost <= 0 {
		t.Errorf("probe = %+v", probe)
	}
}

// TestStaleFallbackProvenanceSurvivesPiggyback: a probe-timeout pessimistic
// bound must stay marked stale-fallback when it is piggybacked to another
// host — a relayed bound is still a bound, not a measurement.
func TestStaleFallbackProvenanceSurvivesPiggyback(t *testing.T) {
	// Link (0,1) at 1 byte/s: a 16 KB timed probe would take hours, so it
	// hits the 30 s timeout path.
	r := newRig(t, DefaultConfig(), 1)
	var info EstimateInfo
	r.k.Spawn("q", func(p *sim.Proc) {
		_, info = r.sys.EstimateDetail(p, 0, 0, 1)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if info.Prov != ProvStaleFallback {
		t.Fatalf("timeout probe provenance = %v, want stale-fallback", info.Prov)
	}
	if info.ProbeCost != DefaultProbeTimeout {
		t.Errorf("timeout probe cost = %v, want %v", info.ProbeCost, DefaultProbeTimeout)
	}
	// Piggyback host 0's cache (holding the bound) to host 2.
	r.send(0, 2, 1024)
	e, ok := r.sys.Cache(2).LookupAny(0, 1)
	if !ok || e.Prov != ProvStaleFallback {
		t.Errorf("relayed bound = %+v ok=%v, want stale-fallback preserved", e, ok)
	}
	// A cache hit on the bound reports stale-fallback too.
	var hit EstimateInfo
	r.k.Spawn("q2", func(p *sim.Proc) {
		_, hit = r.sys.EstimateDetail(p, 2, 0, 1)
	})
	if err := r.k.Run(); err != nil {
		t.Fatal(err)
	}
	if hit.Prov != ProvStaleFallback {
		t.Errorf("cache hit on bound = %v, want stale-fallback", hit.Prov)
	}
}

func TestProvenanceStrings(t *testing.T) {
	want := map[Provenance]string{
		ProvProbe: "probe", ProvFreshCache: "fresh-cache",
		ProvPiggyback: "piggyback", ProvStaleFallback: "stale-fallback",
		ProvLocal: "local", Provenance(250): "unknown",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Provenance(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
}

func TestPiggybackDeterministicOrder(t *testing.T) {
	r := newRig(t, DefaultConfig())
	c := r.sys.Cache(0)
	// Same timestamp: ordered by pair for determinism.
	c.Record(0, 2, 1, sim.Second, ProvFreshCache)
	c.Record(0, 1, 2, sim.Second, ProvFreshCache)
	c.Record(1, 2, 3, sim.Second, ProvFreshCache)
	es := piggyback(r.sys, 0)
	if es[0].A != 0 || es[0].B != 1 || es[1].B != 2 || es[2].A != 1 {
		t.Errorf("order not canonical: %+v", es)
	}
}
