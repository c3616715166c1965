// Package monitor implements the paper's on-demand network monitoring scheme
// (§4): passive measurement of any transfer of at least S_thres bytes (both
// endpoints learn the bandwidth), a per-host measurement cache whose entries
// time out after T_thres seconds, and piggybacking of the most recent
// measurements — those that fit within 1 KB — onto every outgoing message.
// Placement algorithms obtain bandwidth estimates through Estimate, which
// falls back to an on-demand probe (a 16 KB round trip, as in the paper's
// trace methodology and systems like the Network Weather Service) when a
// host's cache has no fresh entry.
package monitor

import (
	"time"

	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
)

// Defaults from the paper's experiments.
const (
	// DefaultSThres: transfers at least this large are measured passively.
	DefaultSThres int64 = 16 * 1024
	// DefaultTThres: cache entries time out after this long. The paper chose
	// 40 s — "a little less than half" the ~2 min expected period between
	// significant bandwidth changes in its traces.
	DefaultTThres = 40 * time.Second
	// DefaultPiggybackBudget: the freshest measurements that fit within 1 KB
	// ride on every message.
	DefaultPiggybackBudget = 1024
	// DefaultEntrySize: wire size of one piggybacked measurement (two host
	// ids, a bandwidth, a timestamp).
	DefaultEntrySize = 16
	// DefaultProbeSize: on-demand probes move 16 KB each way.
	DefaultProbeSize int64 = 16 * 1024
	// DefaultProbeTimeout caps how long a timed probe of a collapsed link
	// may take; a probe that would exceed it reports the implied
	// lower-bound bandwidth instead (Network Weather Service-style probe
	// timeouts). Without this, measuring a dead link stalls the placement
	// algorithm for the full (possibly hours-long) round trip.
	DefaultProbeTimeout = 30 * time.Second
)

// ProbeMode selects how on-demand bandwidth queries are charged.
type ProbeMode int

const (
	// ProbeTimed charges the requesting process the round-trip time of a
	// 16 KB probe against the link's current bandwidth, then returns the
	// measured value. This is the default: probes cost time but are not
	// routed through the endpoint NICs (the paper notes that on-demand
	// monitoring at the 5-10 minute relocation period does not significantly
	// impact the results).
	ProbeTimed ProbeMode = iota
	// ProbeOracle returns the ground-truth bandwidth instantly. Used for
	// ablations isolating algorithm quality from monitoring cost.
	ProbeOracle
	// ProbeNetwork routes real 16 KB probe messages through the endpoint
	// NICs via per-host monitor demons (the Komodo / Network Weather
	// Service architecture the paper cites): probes contend with data
	// traffic and are measured passively like any other large transfer.
	ProbeNetwork
)

// Provenance records where a bandwidth figure came from, both as the origin
// byte carried by every cache Entry and as the attribution EstimateDetail
// reports for each estimate it serves. The estimator-accuracy layer
// (internal/estacc) and the decision audit trail key their staleness
// analysis on it: a piggybacked entry and a probe-timeout bound can carry
// the same age but have very different error profiles.
type Provenance uint8

const (
	// ProvProbe: a completed on-demand probe measured the value for this
	// caller. Only EstimateDetail reports it; cache entries written from a
	// probe result are ProvFreshCache (locally measured) thereafter.
	ProvProbe Provenance = iota
	// ProvFreshCache: the entry was measured at this host — passively from
	// a large transfer, or as the landed result of an earlier probe.
	ProvFreshCache
	// ProvPiggyback: the entry was learned from another host's piggybacked
	// cache, not measured here.
	ProvPiggyback
	// ProvStaleFallback: the value is a probe-timeout pessimistic lower
	// bound, not a measurement; piggybacking preserves this marking.
	ProvStaleFallback
	// ProvLocal: a same-host "link", served as effectively infinite.
	ProvLocal
)

var provNames = [...]string{
	ProvProbe:         "probe",
	ProvFreshCache:    "fresh-cache",
	ProvPiggyback:     "piggyback",
	ProvStaleFallback: "stale-fallback",
	ProvLocal:         "local",
}

// String implements fmt.Stringer; the names appear as telemetry Aux values.
func (p Provenance) String() string {
	if int(p) < len(provNames) {
		return provNames[p]
	}
	return "unknown"
}

// Entry is a cached bandwidth measurement for a host pair.
type Entry struct {
	A, B netmodel.HostID // canonical order: A < B
	BW   trace.Bandwidth
	At   sim.Time   // measurement time
	Prov Provenance // how the entry got into this cache
}

// Config parameterises the monitoring system.
type Config struct {
	SThres          int64
	TThres          time.Duration
	PiggybackBudget int
	EntrySize       int
	ProbeMode       ProbeMode
	ProbeSize       int64
	ProbeTimeout    time.Duration
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		SThres:          DefaultSThres,
		TThres:          DefaultTThres,
		PiggybackBudget: DefaultPiggybackBudget,
		EntrySize:       DefaultEntrySize,
		ProbeMode:       ProbeTimed,
		ProbeSize:       DefaultProbeSize,
		ProbeTimeout:    DefaultProbeTimeout,
	}
}

type pairKey [2]netmodel.HostID

func keyOf(a, b netmodel.HostID) pairKey {
	if a > b {
		a, b = b, a
	}
	return pairKey{a, b}
}

// pairIndex numbers the canonical host pairs a <= b densely: (0,0), (0,1),
// (1,1), (0,2), ... so the pairs among hosts 0..b fill (b+1)(b+2)/2 slots.
func pairIndex(k pairKey) int { return int(k[1])*(int(k[1])+1)/2 + int(k[0]) }

// pairSlot holds one pair's entry; set reports whether it has one.
type pairSlot struct {
	Entry
	set bool
}

// Cache is one host's bandwidth measurement cache.
type Cache struct {
	host netmodel.HostID
	sys  *System
	// pairs is indexed by pairIndex and grows to the highest host seen;
	// n counts the set slots.
	pairs []pairSlot
	n     int
	// top is exactly the first cap(top) entries of the cache in newer
	// order, cap(top) being the entries the piggyback budget carries.
	// Record keeps it exact with one ordered insert, because an entry's At
	// only grows.
	top []Entry
	// pub is the snapshot BeforeSend attaches; dirty means top has changed
	// since pub was taken. spare is a retired snapshot no message reads any
	// more, whose buffer backs the next one.
	pub   *snapshot
	dirty bool
	spare *snapshot
}

// snapshot is a read-only copy of one cache's top entries, shared by every
// message sent while it is current. readers counts the messages between
// BeforeSend and AfterDeliver that carry it: a snapshot's entries are
// rewritten only after readers drops to zero, so a receiver always merges
// the measurements as they were at send time. A message lost to a crash or
// a cut link never reaches AfterDeliver, so its snapshot stays held and is
// left to the garbage collector.
type snapshot struct {
	entries []Entry
	readers int
	owner   *Cache
}

// newer reports whether x ranks ahead of y in piggyback order: newest
// first, then by host pair. Distinct pairs never tie.
func newer(x, y Entry) bool {
	if x.At != y.At {
		return x.At > y.At
	}
	if x.A != y.A {
		return x.A < y.A
	}
	return x.B < y.B
}

// rank returns the first index of top whose entry does not rank ahead of e.
func rank(top []Entry, e Entry) int {
	lo, hi := 0, len(top)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if newer(top[m], e) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Record stores a measurement with its provenance, keeping the newer of the
// existing and new entries for the pair.
//
//lint:hotpath
//lint:allocbudget 1 the pair slots grow once per new highest host; the top list is preallocated
func (c *Cache) Record(a, b netmodel.HostID, bw trace.Bandwidth, at sim.Time, prov Provenance) {
	k := keyOf(a, b)
	i := pairIndex(k)
	if i >= len(c.pairs) {
		grown := make([]pairSlot, pairIndex(pairKey{k[1], k[1]})+1)
		copy(grown, c.pairs)
		c.pairs = grown
	}
	old, had := c.pairs[i].Entry, c.pairs[i].set
	if had && old.At >= at {
		return
	}
	e := Entry{A: k[0], B: k[1], BW: bw, At: at, Prov: prov}
	c.pairs[i] = pairSlot{Entry: e, set: true}
	if !had {
		c.n++
	}

	// Keep top exact. e ranks ahead of old, so the pair can only move up:
	// the entries in top[to:from] shift down one place to make room.
	top := c.top
	n := len(top)
	var from int
	switch {
	case n < cap(top):
		// Not full: every entry of the cache is in top.
		if had {
			from = rank(top, old)
		} else {
			top = top[:n+1]
			from = n
		}
	case n == 0 || newer(top[n-1], e):
		return // no budget, or e ranks behind the whole full list
	case had && !newer(top[n-1], old):
		from = rank(top, old)
	default:
		from = n - 1 // e pushes the last entry out
	}
	to := rank(top[:from], e)
	copy(top[to+1:from+1], top[to:from])
	top[to] = e
	c.top = top
	c.dirty = true
}

// Lookup returns the cached measurement for (a, b) if it is fresh (younger
// than T_thres).
func (c *Cache) Lookup(a, b netmodel.HostID) (Entry, bool) {
	e, ok := c.LookupAny(a, b)
	if !ok {
		return Entry{}, false
	}
	if c.sys.net.Kernel().Now().Sub(e.At) > c.sys.cfg.TThres {
		return Entry{}, false
	}
	return e, true
}

// LookupAny returns the cached measurement regardless of age.
func (c *Cache) LookupAny(a, b netmodel.HostID) (Entry, bool) {
	if i := pairIndex(keyOf(a, b)); i < len(c.pairs) && c.pairs[i].set {
		return c.pairs[i].Entry, true
	}
	return Entry{}, false
}

// Len returns the number of cached entries (including stale ones).
func (c *Cache) Len() int { return c.n }

// snapshot returns the current snapshot of top, taking a new one if top has
// changed; nil when there is nothing to piggyback.
func (c *Cache) snapshot() *snapshot {
	if !c.dirty {
		return c.pub
	}
	c.dirty = false
	s := c.pub
	switch {
	case s != nil && s.readers == 0:
		// No message carries the outdated snapshot: rewrite it in place.
	case c.spare != nil:
		s, c.spare = c.spare, nil
	default:
		s = &snapshot{entries: make([]Entry, 0, cap(c.top)), owner: c}
	}
	s.entries = append(s.entries[:0], c.top...)
	c.pub = s
	return s
}

// release drops one reader; a retired snapshot nobody reads becomes its
// owner's spare.
func (s *snapshot) release() {
	s.readers--
	if s.readers == 0 && s != s.owner.pub {
		s.owner.spare = s
	}
}

// merge folds piggybacked entries into the cache, keeping newer timestamps.
// Entries arriving here were learned over the wire, not measured locally, so
// they are re-marked ProvPiggyback — except probe-timeout bounds, whose
// ProvStaleFallback marking must survive any number of piggyback hops (a
// relayed pessimistic bound is still a bound, not a measurement).
func (c *Cache) merge(entries []Entry) {
	for _, e := range entries {
		prov := ProvPiggyback
		if e.Prov == ProvStaleFallback {
			prov = ProvStaleFallback
		}
		c.Record(e.A, e.B, e.BW, e.At, prov)
	}
}

// System is the monitoring subsystem for one simulated network. It observes
// every transfer (passive monitoring + piggybacking) and serves bandwidth
// estimates to the placement algorithms.
type System struct {
	net    *netmodel.Network
	cfg    Config
	caches map[netmodel.HostID]*Cache

	probes      int64
	passiveMeas int64
	cacheHits   int64
	cacheMisses int64

	// ProbeNetwork state.
	demons   bool
	probeSeq int64
	pongs    map[pongKey]bool
}

// NewSystem creates the monitoring system and registers it as a transfer
// observer on the network.
func NewSystem(net *netmodel.Network, cfg Config) *System {
	if cfg.SThres <= 0 {
		cfg.SThres = DefaultSThres
	}
	if cfg.TThres <= 0 {
		cfg.TThres = DefaultTThres
	}
	if cfg.PiggybackBudget <= 0 {
		cfg.PiggybackBudget = DefaultPiggybackBudget
	}
	if cfg.EntrySize <= 0 {
		cfg.EntrySize = DefaultEntrySize
	}
	if cfg.ProbeSize <= 0 {
		cfg.ProbeSize = DefaultProbeSize
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = DefaultProbeTimeout
	}
	s := &System{net: net, cfg: cfg, caches: make(map[netmodel.HostID]*Cache)}
	net.Observe(s)
	if cfg.ProbeMode == ProbeNetwork {
		s.EnableNetworkProbes()
	}
	return s
}

// Config returns the active configuration.
func (s *System) Config() Config { return s.cfg }

// Cache returns host h's measurement cache, creating it on first use.
func (s *System) Cache(h netmodel.HostID) *Cache {
	c, ok := s.caches[h]
	if !ok {
		c = &Cache{host: h, sys: s}
		if k := s.cfg.PiggybackBudget / s.cfg.EntrySize; k > 0 {
			c.top = make([]Entry, 0, k)
		}
		s.caches[h] = c
	}
	return c
}

// Probes returns the number of on-demand probes performed.
func (s *System) Probes() int64 { return s.probes }

// PassiveMeasurements returns the number of passive measurements recorded.
func (s *System) PassiveMeasurements() int64 { return s.passiveMeas }

// CacheHitRate returns the fraction of Estimate calls served from cache.
func (s *System) CacheHitRate() float64 {
	total := s.cacheHits + s.cacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.cacheHits) / float64(total)
}

// BeforeSend implements netmodel.Observer: attach the sender's newest
// measurements, as many as fit in the piggyback budget, as a shared
// read-only snapshot.
//
//lint:hotpath
//lint:allocbudget 2 the sender's cache on its first use, and a new snapshot buffer when top changed while every earlier one is still read in flight
func (s *System) BeforeSend(msg *netmodel.Message) {
	snap := s.Cache(msg.Src).snapshot()
	if snap == nil {
		return
	}
	snap.readers++
	msg.Piggyback = snap
}

// AfterDeliver implements netmodel.Observer: record a passive measurement at
// both endpoints if the message was large enough, and merge any piggybacked
// entries into the receiver's cache. The message gives up its snapshot.
//
//lint:hotpath
//lint:allocbudget 3 the three inlined Cache lookups each create a host's cache on its first use; steady state allocates nothing
func (s *System) AfterDeliver(msg *netmodel.Message, linkDuration time.Duration) {
	if msg.Src != msg.Dst && msg.Size >= s.cfg.SThres {
		bw := s.net.MeasuredBandwidth(msg.Size, linkDuration)
		if bw > 0 {
			now := s.net.Kernel().Now()
			s.Cache(msg.Src).Record(msg.Src, msg.Dst, bw, now, ProvFreshCache)
			s.Cache(msg.Dst).Record(msg.Src, msg.Dst, bw, now, ProvFreshCache)
			s.passiveMeas++
			if k := s.net.Kernel(); k.Telemetry() != nil {
				k.Emit(telemetry.Event{
					Kind: telemetry.KindPassiveMeasured,
					Host: int32(msg.Src), Peer: int32(msg.Dst),
					Bytes: msg.Size, Value: float64(bw),
				})
			}
		}
	}
	if snap, ok := msg.Piggyback.(*snapshot); ok {
		s.Cache(msg.Dst).merge(snap.entries)
		msg.Piggyback = nil
		snap.release()
	}
}

// EstimateInfo attributes one served estimate: where the value came from,
// when the underlying measurement was taken, and how much simulated time
// this call spent probing (zero for cache hits). It is a small value type so
// returning one allocates nothing.
type EstimateInfo struct {
	// Prov is the estimate's provenance at the moment of use.
	Prov Provenance
	// MeasuredAt is when the underlying measurement was taken; the
	// estimate's age at use is Now - MeasuredAt.
	MeasuredAt sim.Time
	// ProbeCost is the simulated time this call's on-demand probe cost the
	// requesting process (0 for cache hits and ProbeOracle probes).
	ProbeCost time.Duration
}

// Probe performs an on-demand bandwidth measurement of the (a, b) link on
// behalf of process p, records it in viewer's cache (and both endpoints'),
// and returns it. Cost depends on the configured ProbeMode.
func (s *System) Probe(p *sim.Proc, viewer, a, b netmodel.HostID) trace.Bandwidth {
	bw, _ := s.ProbeDetail(p, viewer, a, b)
	return bw
}

// ProbeDetail is Probe plus attribution: the info reports whether the probe
// completed (ProvProbe) or hit the timeout lower-bound path
// (ProvStaleFallback), the measurement time, and the simulated time the
// probe cost the requesting process.
func (s *System) ProbeDetail(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, EstimateInfo) {
	s.probes++
	start := s.net.Kernel().Now()
	bw, prov := s.doProbe(p, viewer, a, b)
	now := s.net.Kernel().Now()
	info := EstimateInfo{Prov: prov, MeasuredAt: now, ProbeCost: now.Sub(start)}
	if k := s.net.Kernel(); k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindProbeIssued,
			Host: int32(a), Peer: int32(b), Node: int32(viewer),
			Value: float64(bw), Dur: int64(info.ProbeCost),
		})
	}
	return bw, info
}

func (s *System) doProbe(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, Provenance) {
	if s.cfg.ProbeMode == ProbeNetwork {
		return s.networkProbe(p, viewer, a, b), ProvProbe
	}
	if s.cfg.ProbeMode == ProbeTimed {
		tr := s.net.Link(a, b)
		rtt := 2 * (s.net.Startup() + tr.TransferDuration(p.Now(), s.cfg.ProbeSize))
		if rtt > s.cfg.ProbeTimeout {
			// Probe timeout: report the bandwidth a transfer completing in
			// exactly the timeout would imply — a pessimistic lower bound
			// that correctly marks collapsed links as unusable without
			// stalling the caller for the full round trip.
			p.Hold(s.cfg.ProbeTimeout)
			now := s.net.Kernel().Now()
			bw := trace.Bandwidth(float64(s.cfg.ProbeSize) / s.cfg.ProbeTimeout.Seconds())
			s.Cache(viewer).Record(a, b, bw, now, ProvStaleFallback)
			s.Cache(a).Record(a, b, bw, now, ProvStaleFallback)
			s.Cache(b).Record(a, b, bw, now, ProvStaleFallback)
			return bw, ProvStaleFallback
		}
		p.Hold(rtt)
	}
	now := s.net.Kernel().Now()
	bw := s.net.BandwidthAt(a, b, now)
	s.Cache(viewer).Record(a, b, bw, now, ProvFreshCache)
	s.Cache(a).Record(a, b, bw, now, ProvFreshCache)
	s.Cache(b).Record(a, b, bw, now, ProvFreshCache)
	return bw, ProvProbe
}

// Estimate returns viewer's best estimate of the (a, b) bandwidth: a fresh
// cache entry if available, otherwise an on-demand probe. Same-host "links"
// are reported as infinitely fast via a very large constant.
func (s *System) Estimate(p *sim.Proc, viewer, a, b netmodel.HostID) trace.Bandwidth {
	bw, _ := s.EstimateDetail(p, viewer, a, b)
	return bw
}

// EstimateDetail is Estimate plus attribution: the returned info carries the
// estimate's provenance (probe / fresh-cache / piggyback / stale-fallback /
// local), the time the underlying measurement was taken, and the probe cost
// this call incurred. The placement-decision audit trail and the
// estimator-accuracy layer (internal/estacc) record it per consumed
// estimate, so prediction errors can be attributed to stale or second-hand
// entries vs fresh measurements. Cache hits (and same-host lookups) are
// zero-cost and allocation-free.
func (s *System) EstimateDetail(p *sim.Proc, viewer, a, b netmodel.HostID) (trace.Bandwidth, EstimateInfo) {
	if a == b {
		return localBandwidth, EstimateInfo{Prov: ProvLocal, MeasuredAt: s.net.Kernel().Now()}
	}
	if e, ok := s.Cache(viewer).Lookup(a, b); ok {
		s.cacheHits++
		prov := e.Prov
		if prov == ProvProbe {
			// Defensive: cache entries are written as fresh-cache /
			// piggyback / stale-fallback; a probe marking means the entry
			// was recorded before provenance existed.
			prov = ProvFreshCache
		}
		return e.BW, EstimateInfo{Prov: prov, MeasuredAt: e.At}
	}
	s.cacheMisses++
	return s.ProbeDetail(p, viewer, a, b)
}

// localBandwidth stands in for "no network hop": transfers between co-located
// operators are free, so the estimate is effectively infinite.
const localBandwidth trace.Bandwidth = 1 << 40
