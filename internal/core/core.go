// Package core is the top-level façade of the library: it assembles a
// complete simulated wide-area data-combination run — network, bandwidth
// traces, monitoring, workload, combination tree, placement policy, dataflow
// execution — and returns the measured outcome.
//
// A run reproduces one cell of the paper's evaluation: one network
// configuration (an assignment of bandwidth traces to the links of the
// complete graph over servers + client), one combination order, and one
// placement algorithm.
package core

import (
	"fmt"

	"wadc/internal/dataflow"
	"wadc/internal/faults"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// TreeShape selects the combination order.
type TreeShape int

// Combination orders evaluated in the paper.
const (
	// CompleteBinaryTree is the maximally bushy order of the main
	// experiments.
	CompleteBinaryTree TreeShape = iota
	// LeftDeepTree is the linear order common in database query plans
	// (Figure 5 / Figure 10).
	LeftDeepTree
	// GreedyBandwidthTree orders the combination by greedily pairing the
	// best-connected servers first, using planning-time bandwidth knowledge
	// (an extension beyond the paper's two fixed orders).
	GreedyBandwidthTree
)

// String implements fmt.Stringer.
func (s TreeShape) String() string {
	switch s {
	case LeftDeepTree:
		return "left-deep"
	case GreedyBandwidthTree:
		return "greedy-bandwidth"
	default:
		return "complete-binary"
	}
}

// Build returns the tree for n servers.
func (s TreeShape) Build(n int) *plan.Tree {
	if s == LeftDeepTree {
		return plan.LeftDeep(n)
	}
	return plan.CompleteBinary(n)
}

// LinkFn supplies the bandwidth trace for each (undirected) host pair.
type LinkFn func(a, b netmodel.HostID) *trace.Trace

// RunConfig describes one simulation run.
type RunConfig struct {
	// Seed drives all model-level randomness in the run.
	Seed int64
	// NumServers is the number of data sources (the client is one more
	// host).
	NumServers int
	// Shape is the combination order.
	Shape TreeShape
	// Links assigns a bandwidth trace to every host pair; hosts 0..N-1 are
	// the servers and host N is the client.
	Links LinkFn
	// Policy is the placement algorithm under test.
	Policy placement.Policy
	// Workload configures the image sequences (paper defaults if zero).
	Workload workload.Config
	// Monitor configures the monitoring subsystem (paper defaults if zero).
	Monitor monitor.Config
	// Iterations overrides the number of partitions (default: full
	// sequences).
	Iterations int
	// TrackTransfers records every data transfer in the result.
	TrackTransfers bool
	// FlatPriorities disables message-priority queueing in the network — the
	// ablation of the paper's barrier-priority design point (§2.2).
	FlatPriorities bool
	// Faults configures deterministic fault injection (host crashes, message
	// drop/duplication, link blackouts). The zero value disables it entirely
	// and the run is byte-identical to one before fault injection existed.
	// The client host is never crashed.
	Faults faults.Config
	// Telemetry, when set, receives every structured simulation event
	// (kernel scheduling, transfers, demands, relocations, barriers, faults).
	// Sinks are purely observational: a run with telemetry attached is
	// bit-identical to the same run without it.
	Telemetry telemetry.Sink
	// CollectMetrics attaches a telemetry.Collector to the run and snapshots
	// its registry into RunResult.Metrics.
	CollectMetrics bool
	// TrackEstimates attaches the estimator-accuracy tracker: every bandwidth
	// estimate a placement decision consumes is joined to the ground truth
	// the network model delivered over the estimate's validity window and
	// emitted as estimate-used / regime-detected telemetry. Requires a
	// telemetry sink (Telemetry or CollectMetrics) to have any effect; like
	// every other observability layer it never perturbs the simulation.
	TrackEstimates bool
	// Perf, when set, attaches a host-process performance recorder: the
	// kernel attributes wall time per subsystem, counts events and
	// transfers, and pprof-labels process goroutines; Run finalizes the
	// recorder into RunResult.Perf. Like Telemetry, it is purely
	// observational — a run with Perf attached produces byte-identical
	// artifacts to the same run without it.
	Perf *obs.Recorder
	// TrackAllocs brackets the run with exhaustive allocation profiling
	// (runtime.MemProfileRate = 1) and attaches the symbolized alloc-site
	// table and GC stats as RunResult.AllocSites. Expensive — every heap
	// allocation is sampled — and strictly observational: the simulated
	// outcome is byte-identical with it on or off, and a run without it
	// never touches the profiler.
	TrackAllocs bool
}

// RunResult is the outcome of one run.
type RunResult struct {
	dataflow.Result
	WorldStats
	// Algorithm is the policy name.
	Algorithm string
	// Probes and PassiveMeasurements summarise monitoring activity.
	Probes              int64
	PassiveMeasurements int64
	CacheHitRate        float64
	// InitialPlacement and FinalPlacement bracket the run.
	InitialPlacement *plan.Placement
	FinalPlacement   *plan.Placement
	// Decisions summarises the policy's placement-decision activity
	// (zero for policies that keep no stats, e.g. download-all and the
	// stateless one-shot value).
	Decisions placement.DecisionStats
}

// Run executes one complete simulation and returns its result.
func Run(cfg RunConfig) (RunResult, error) {
	if cfg.Policy == nil {
		return RunResult{}, fmt.Errorf("core: Policy is required")
	}
	w, err := newWorld(MultiConfig{
		Seed:           cfg.Seed,
		NumServers:     cfg.NumServers,
		Links:          cfg.Links,
		Monitor:        cfg.Monitor,
		Faults:         cfg.Faults,
		FlatPriorities: cfg.FlatPriorities,
		Telemetry:      cfg.Telemetry,
		CollectMetrics: cfg.CollectMetrics,
		TrackEstimates: cfg.TrackEstimates,
		Perf:           cfg.Perf,
		TrackAllocs:    cfg.TrackAllocs,
	})
	if err != nil {
		return RunResult{}, err
	}
	defer w.release()
	net, mon := w.net, w.mon

	var tree *plan.Tree
	if cfg.Shape == GreedyBandwidthTree {
		// Order the combination with planning-time bandwidth knowledge:
		// cheapest (fastest) server pairs combine deepest in the tree.
		tree = plan.GreedyBinary(cfg.NumServers, func(a, b int) float64 {
			return 1 / float64(net.BandwidthAt(netmodel.HostID(a), netmodel.HostID(b), 0))
		})
	} else {
		tree = cfg.Shape.Build(cfg.NumServers)
	}
	serverHosts, _ := plan.DefaultHostAssignment(cfg.NumServers)
	images := workload.Generate(cfg.Seed, cfg.NumServers, cfg.Workload)
	iters, err := iterations(cfg.Iterations, images)
	if err != nil {
		return RunResult{}, fmt.Errorf("core: %w", err)
	}
	if cfg.Perf != nil {
		// One progress unit per image the client will receive.
		cfg.Perf.AddWork(int64(iters))
	}
	model := plan.DefaultCostModel(workload.MeanBytes(images))
	inst := placement.NewInstance(net, mon, tree, serverHosts, w.client, model)
	inst.Acc = w.acc

	// Unlike RunMulti, the single query's engine schedules the fault plan
	// itself (DESIGN.md §10 explains why).
	var eng *dataflow.Engine
	var initialPl *plan.Placement
	bootstrap := w.k.Spawn("bootstrap", func(p *sim.Proc) {
		initial := cfg.Policy.InitialPlacement(p, inst)
		initialPl = initial.Clone()
		eng = dataflow.New(dataflow.Config{
			Net: net, Mon: mon, Tree: tree,
			Initial:        initial,
			Images:         images,
			Iterations:     cfg.Iterations,
			TrackTransfers: cfg.TrackTransfers,
			Faults:         w.inj,
		})
		cfg.Policy.Attach(inst, eng)
		eng.Start()
	})
	// The bootstrap process runs the policy's initial placement; the engine
	// retags its own processes at spawn.
	bootstrap.SetSubsystem(obs.SubsysPlacement)
	if err := w.k.Run(); err != nil {
		return RunResult{}, fmt.Errorf("core: simulation failed: %w", err)
	}
	if eng == nil || !eng.Completed() {
		return RunResult{}, fmt.Errorf("core: run did not complete")
	}
	res := RunResult{
		Result:              eng.Result(),
		Algorithm:           cfg.Policy.Name(),
		Probes:              mon.Probes(),
		PassiveMeasurements: mon.PassiveMeasurements(),
		CacheHitRate:        mon.CacheHitRate(),
		InitialPlacement:    initialPl,
		FinalPlacement:      eng.CurrentPlacement(),
	}
	if da, ok := cfg.Policy.(placement.DecisionAudited); ok {
		res.Decisions = da.DecisionStats()
	}
	res.WorldStats = w.stats(int64(len(res.Arrivals)))
	return res, nil
}
