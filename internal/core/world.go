package core

import (
	"fmt"
	"math/rand"

	"wadc/internal/estacc"
	"wadc/internal/faults"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/workload"
)

// world is the simulated infrastructure Run and RunMulti share: the kernel
// with its observers, the network of NumServers server hosts plus the client
// host, the monitoring system, and the optional estimator tracker and fault
// injector. Queries — one for Run, one per tenant for RunMulti — are
// instantiated on top of it.
type world struct {
	k      *sim.Kernel
	net    *netmodel.Network
	mon    *monitor.System
	client netmodel.HostID
	// acc is nil unless TrackEstimates; one tracker serves every query, so
	// its per-link regime cursors span tenants.
	acc *estacc.Tracker
	// inj and faultPlan are nil unless Faults is enabled.
	inj       *faults.Injector
	faultPlan *faults.Plan

	collector *telemetry.Collector
	perf      *obs.Recorder
	allocCap  *obs.AllocCapture
}

// newWorld builds the infrastructure cfg describes. It reads Seed,
// NumServers, Links, Monitor, Faults, FlatPriorities and the observer
// fields; Tenants, Workload and Period describe queries and are ignored.
func newWorld(cfg MultiConfig) (_ *world, err error) {
	if cfg.NumServers < 2 {
		return nil, fmt.Errorf("core: need at least 2 servers, got %d", cfg.NumServers)
	}
	if cfg.Links == nil {
		return nil, fmt.Errorf("core: Links is required")
	}
	w := &world{perf: cfg.Perf}

	// The alloc capture brackets everything the run does — assembly, kernel
	// loop, result construction — so a hot site anywhere in the cell is
	// attributed. Armed only on request; a run without it never touches the
	// profiler.
	if cfg.TrackAllocs {
		w.allocCap = obs.StartAllocCapture()
		defer func() {
			if err != nil {
				w.release()
			}
		}()
	}

	kOpts := []sim.Option{sim.WithSeed(cfg.Seed)}
	if cfg.Perf != nil {
		kOpts = append(kOpts, sim.WithObserver(cfg.Perf))
	}
	if cfg.CollectMetrics {
		w.collector = telemetry.NewCollector()
		kOpts = append(kOpts, sim.WithTelemetry(w.collector))
	}
	if cfg.Telemetry != nil {
		kOpts = append(kOpts, sim.WithTelemetry(cfg.Telemetry))
	}
	w.k = sim.NewKernel(kOpts...)
	var netOpts []netmodel.NetOption
	if cfg.FlatPriorities {
		netOpts = append(netOpts, netmodel.WithFlatPriorities())
	}
	w.net = netmodel.NewNetwork(w.k, netOpts...)
	for i := 0; i < cfg.NumServers; i++ {
		w.net.AddHost(fmt.Sprintf("s%d", i))
	}
	w.client = w.net.AddHost("client").ID()
	for a := 0; a < w.net.NumHosts(); a++ {
		for b := a + 1; b < w.net.NumHosts(); b++ {
			tr := cfg.Links(netmodel.HostID(a), netmodel.HostID(b))
			if tr == nil {
				return nil, fmt.Errorf("core: no trace for link %d<->%d", a, b)
			}
			w.net.SetLink(netmodel.HostID(a), netmodel.HostID(b), tr)
		}
	}
	w.mon = monitor.NewSystem(w.net, cfg.Monitor)
	if cfg.TrackEstimates {
		w.acc = estacc.New(w.net, w.mon)
	}

	// Fault injection: generate (or take) the plan, validate it against the
	// topology — the client host is protected — and install the injector.
	// Everything is seeded, so a faulty run replays bit-for-bit. Who
	// schedules the plan's crash windows is the caller's choice.
	if cfg.Faults.Enabled() {
		fcfg := cfg.Faults
		if fcfg.Seed == 0 {
			fcfg.Seed = cfg.Seed*1000003 + 17
		}
		w.faultPlan = fcfg.Plan
		if w.faultPlan == nil {
			w.faultPlan = faults.Generate(fcfg, w.net.NumHosts(), w.client)
		}
		if err := w.faultPlan.Validate(w.net.NumHosts(), w.client); err != nil {
			return nil, fmt.Errorf("core: invalid fault plan: %w", err)
		}
		w.inj = faults.NewInjector(w.faultPlan, rand.New(rand.NewSource(fcfg.Seed+1)), fcfg.Retry)
		w.net.SetFaults(w.inj)
	}
	return w, nil
}

// release ends the alloc capture of a run that failed, restoring the
// profiler's sampling rate. It is a no-op once stats has finished the
// capture, so callers defer it right after newWorld.
func (w *world) release() { w.allocCap.Finish(0) }

// WorldStats is the shared-infrastructure outcome of a run: network load,
// fault accounting and the observer reports. RunResult and MultiResult
// embed it.
type WorldStats struct {
	// NetworkTransfers and BytesMoved summarise network load.
	NetworkTransfers int64
	BytesMoved       int64
	// Fault-injection accounting (all zero when Faults is unset).
	FaultPlan          *faults.Plan
	CrashesFired       int
	MessagesDropped    int64
	MessagesDuplicated int64
	TransfersCut       int64
	// Metrics is the run's metric snapshot (nil unless CollectMetrics was
	// set).
	Metrics *telemetry.Snapshot
	// KernelEvents is the total number of events the kernel scheduled —
	// the denominator for events/sec throughput, maintained whether or
	// not a perf recorder is attached.
	KernelEvents int64
	// Perf is the finalized host-process performance report (nil unless
	// Perf was set).
	Perf *obs.Report
	// AllocSites is the run's attributed allocation profile (nil unless
	// TrackAllocs was set). Ops counts the iterations delivered.
	AllocSites *obs.AllocReport
	// Estimator summarises estimator-accuracy tracking (zero unless
	// TrackEstimates was set with a telemetry sink).
	Estimator estacc.Stats
}

// stats collects the world's outcome after the kernel drained; delivered is
// the number of iterations the client received across all queries. It
// finalizes the perf recorder and ends the alloc capture, so it is the last
// step of a run.
func (w *world) stats(delivered int64) WorldStats {
	s := WorldStats{
		NetworkTransfers: w.net.Transfers(),
		BytesMoved:       w.net.BytesMoved(),
		KernelEvents:     int64(w.k.Scheduled()),
		Estimator:        w.acc.Stats(),
	}
	if w.inj != nil {
		s.FaultPlan = w.faultPlan
		s.CrashesFired = w.inj.CrashesFired()
		s.MessagesDropped, s.MessagesDuplicated, s.TransfersCut = w.net.FaultCounts()
	}
	if w.collector != nil {
		s.Metrics = w.collector.Snapshot()
	}
	if w.perf != nil {
		s.Perf = w.perf.Report()
	}
	s.AllocSites = w.allocCap.Finish(delivered)
	return s
}

// iterations resolves a query's iteration count against its image
// sequences: n <= 0 means the whole sequences. Asking for more images than
// were generated is a configuration error, reported here at setup instead
// of as a panic mid-simulation.
func iterations(n int, images [][]workload.Image) (int, error) {
	have := len(images[0])
	if n > have {
		return 0, fmt.Errorf("%d iterations requested, but each server has only %d images", n, have)
	}
	if n <= 0 {
		return have, nil
	}
	return n, nil
}
