package core

import (
	"fmt"
	"time"

	"wadc/internal/dataflow"
	"wadc/internal/estacc"
	"wadc/internal/faults"
	"wadc/internal/metrics"
	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/workload"
)

// MultiConfig describes a multi-tenant simulation: N independent client
// queries — each with its own combination tree, placement policy and
// iteration clock — contending for one shared network. Hosts 0..NumServers-1
// form the shared server pool; host NumServers is the shared user site where
// every tenant's client runs (and which fault plans protect).
type MultiConfig struct {
	// Seed drives the kernel and all shared-infrastructure randomness.
	Seed int64
	// NumServers is the size of the shared server-host pool.
	NumServers int
	// Links assigns a bandwidth trace to every host pair of the pool + the
	// client host.
	Links LinkFn
	// Tenants is the arrival-ordered population (tenant.Population or
	// hand-built). Tenant IDs must be unique and positive.
	Tenants []tenant.Spec
	// Workload configures every tenant's image sequences (each tenant draws
	// its own sequences from its private seed).
	Workload workload.Config
	// Monitor configures the shared monitoring subsystem.
	Monitor monitor.Config
	// Period is the relocation period for tenants running on-line policies
	// (package defaults if zero).
	Period time.Duration
	// Faults configures shared fault injection. The plan is scheduled once
	// and its crash/recover windows fan out to every live tenant engine; the
	// client host is protected, so no tenant loses its client.
	Faults faults.Config
	// FlatPriorities disables message-priority queueing network-wide.
	FlatPriorities bool
	// Telemetry observes the shared kernel; every event carries the tenant
	// tag of the process that emitted it.
	Telemetry telemetry.Sink
	// CollectMetrics snapshots the shared metric registry into the result.
	CollectMetrics bool
	// TrackEstimates attaches one shared estimator-accuracy tracker: every
	// tenant's placement decisions join their consumed estimates to ground
	// truth (events carry the consuming tenant's tag). Requires a telemetry
	// sink to have any effect; purely observational.
	TrackEstimates bool
	// Perf, when set, attaches a host-process performance recorder to the
	// shared kernel (see RunConfig.Perf); RunMulti finalizes it into
	// MultiResult.Perf. Purely observational: artifacts are byte-identical
	// with or without it.
	Perf *obs.Recorder
	// TrackAllocs brackets the run with exhaustive allocation profiling
	// (see RunConfig.TrackAllocs); RunMulti attaches the attributed site
	// table as MultiResult.AllocSites.
	TrackAllocs bool
}

// TenantResult is one tenant's outcome within a multi-tenant run.
type TenantResult struct {
	Spec       tenant.Spec
	Completed  bool
	Aborted    bool
	ArrivedAt  sim.Time
	DepartedAt sim.Time
	// Delivered is the number of iterations the client received.
	Delivered int
	// Residence is DepartedAt - ArrivedAt.
	Residence time.Duration
	// MeanLatency is Residence / Delivered: the tenant's own mean
	// per-iteration latency, measured from its arrival (unlike
	// dataflow.Result.MeanInterarrival, which is anchored at time zero).
	MeanLatency time.Duration
	// Throughput is Delivered per simulated second of residence — the
	// allocation Jain's index is computed over.
	Throughput float64
	// Result is the tenant's dataflow summary (zero value if it aborted).
	Result dataflow.Result
	// Decisions summarises the tenant policy's placement-decision activity.
	Decisions placement.DecisionStats
	// InitialPlacement and FinalPlacement bracket the tenant's run.
	InitialPlacement *plan.Placement
	FinalPlacement   *plan.Placement
}

// MultiResult is the outcome of a multi-tenant run. Its WorldStats cover
// the shared infrastructure; AllocSites.Ops counts delivered iterations
// across all tenants.
type MultiResult struct {
	WorldStats
	// Tenants holds one entry per spec, in input order.
	Tenants []TenantResult
	// Completed and Aborted count tenant outcomes.
	Completed int
	Aborted   int
	// JainFairness is Jain's fairness index over the non-idle tenants'
	// iteration throughputs (1 = perfectly fair).
	JainFairness float64
	// TenantTraffic is each tenant's share of network activity.
	TenantTraffic []netmodel.TenantTraffic
	// LinkShares is the per-(link, tenant) contention breakdown.
	LinkShares []netmodel.LinkShare
	// PendingEvents is the kernel queue length after the run drained; zero
	// proves tenant teardown leaked no timers or wake-ups.
	PendingEvents int
}

// tenantRun is the harness's per-tenant state: everything resolved at setup
// so the arrival callback cannot fail mid-simulation.
type tenantRun struct {
	spec        tenant.Spec
	policy      placement.Policy
	serverHosts []netmodel.HostID
	tree        *plan.Tree
	images      [][]workload.Image
	iters       int // resolved iteration count (0 for an idle tenant)
	model       plan.CostModel

	eng        *dataflow.Engine
	initial    *plan.Placement
	arrivedAt  sim.Time
	departedAt sim.Time
	departed   bool
}

// RunMulti executes a multi-tenant simulation: every tenant's query tree is
// instantiated on the shared kernel at its arrival time, runs its own
// placement policy against the shared network, and departs when its client
// has every iteration (or its engine aborts under faults). Determinism is
// unchanged from Run: the same config replays byte-for-byte, whatever the
// tenant count.
func RunMulti(cfg MultiConfig) (MultiResult, error) {
	if len(cfg.Tenants) == 0 {
		return MultiResult{}, fmt.Errorf("core: no tenants")
	}
	seen := make(map[int32]bool, len(cfg.Tenants))
	for _, sp := range cfg.Tenants {
		if err := sp.Validate(); err != nil {
			return MultiResult{}, fmt.Errorf("core: %w", err)
		}
		if seen[sp.ID] {
			return MultiResult{}, fmt.Errorf("core: duplicate tenant ID %d", sp.ID)
		}
		seen[sp.ID] = true
	}
	w, err := newWorld(cfg)
	if err != nil {
		return MultiResult{}, err
	}
	defer w.release()
	k, net := w.k, w.net

	// Resolve every tenant's topology, tree, workload and policy up front:
	// arrival callbacks run mid-simulation and must not be able to fail.
	runs := make([]*tenantRun, len(cfg.Tenants))
	var totalIters int64
	for i, sp := range cfg.Tenants {
		tr, err := prepareTenant(sp, cfg, net)
		if err != nil {
			return MultiResult{}, err
		}
		runs[i] = tr
		totalIters += int64(tr.iters)
	}
	if cfg.Perf != nil {
		// One progress unit per image any tenant's client will receive.
		cfg.Perf.AddWork(totalIters)
	}

	// One injector schedule for the whole run: each crash/recover window fans
	// out to every engine that has arrived and not yet departed. (Engines are
	// created with SharedFaults so they do not re-schedule the plan
	// themselves — N engines replaying every crash N times.)
	if w.inj != nil {
		w.inj.Schedule(k, func(h netmodel.HostID) {
			for _, tr := range runs {
				if tr.eng != nil && !tr.departed {
					tr.eng.HostCrashed(h)
				}
			}
		}, func(h netmodel.HostID) {
			for _, tr := range runs {
				if tr.eng != nil && !tr.departed {
					tr.eng.HostRecovered(h)
				}
			}
		})
	}

	// Open-loop arrivals: each tenant joins at its own time, regardless of
	// how the others are doing.
	for _, tr := range runs {
		tr := tr
		k.At(tr.spec.ArriveAt, func() {
			launchTenant(k, net, w.mon, w.acc, w.client, w.inj, tr)
		})
	}

	if err := k.Run(); err != nil {
		return MultiResult{}, fmt.Errorf("core: simulation failed: %w", err)
	}

	res := MultiResult{
		Tenants:       make([]TenantResult, len(runs)),
		TenantTraffic: net.TenantTraffic(),
		LinkShares:    net.LinkShares(),
		PendingEvents: k.Pending(),
	}
	var throughputs []float64
	var delivered int64
	for i, tr := range runs {
		if tr.eng == nil || !tr.departed {
			return MultiResult{}, fmt.Errorf("core: tenant %d never departed", tr.spec.ID)
		}
		t := TenantResult{
			Spec:             tr.spec,
			Completed:        tr.eng.Completed(),
			Aborted:          tr.eng.Aborted(),
			ArrivedAt:        tr.arrivedAt,
			DepartedAt:       tr.departedAt,
			Residence:        (tr.departedAt - tr.arrivedAt).Duration(),
			InitialPlacement: tr.initial,
			FinalPlacement:   tr.eng.CurrentPlacement(),
		}
		if t.Completed {
			t.Result = tr.eng.Result()
			t.Delivered = len(t.Result.Arrivals)
			res.Completed++
		} else {
			res.Aborted++
		}
		if t.Delivered > 0 {
			t.MeanLatency = t.Residence / time.Duration(t.Delivered)
			if secs := t.Residence.Seconds(); secs > 0 {
				t.Throughput = float64(t.Delivered) / secs
			}
		}
		if da, ok := tr.policy.(placement.DecisionAudited); ok {
			t.Decisions = da.DecisionStats()
		}
		if !tr.spec.Idle {
			throughputs = append(throughputs, t.Throughput)
		}
		delivered += int64(t.Delivered)
		res.Tenants[i] = t
	}
	res.JainFairness = metrics.JainIndex(throughputs)
	res.WorldStats = w.stats(delivered)
	return res, nil
}

// prepareTenant resolves one spec against the shared network: server hosts,
// combination tree, image sequences and a fresh policy instance.
func prepareTenant(sp tenant.Spec, cfg MultiConfig, net *netmodel.Network) (*tenantRun, error) {
	serverHosts, err := sp.ServerHosts(cfg.NumServers)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	shape, err := ParseShape(sp.Shape)
	if err != nil {
		return nil, err
	}
	var tree *plan.Tree
	if shape == GreedyBandwidthTree {
		// Greedy ordering uses planning-time knowledge at the tenant's
		// arrival instant (the moment it would plan).
		tree = plan.GreedyBinary(sp.NumServers, func(a, b int) float64 {
			return 1 / float64(net.BandwidthAt(serverHosts[a], serverHosts[b], sp.ArriveAt))
		})
	} else {
		tree = shape.Build(sp.NumServers)
	}
	var images [][]workload.Image
	if sp.Idle {
		// An idle tenant combines zero partitions: its processes spawn,
		// observe they have nothing to do, and finish without touching the
		// network, the disks or any random stream.
		images = make([][]workload.Image, sp.NumServers)
	} else {
		images = workload.Generate(sp.Seed, sp.NumServers, cfg.Workload)
	}
	iters, err := iterations(sp.Iterations, images)
	if err != nil {
		return nil, fmt.Errorf("core: tenant %d: %w", sp.ID, err)
	}
	policy, err := NewPolicy(sp.Algorithm, PolicyOptions{Period: cfg.Period, Seed: sp.Seed})
	if err != nil {
		return nil, err
	}
	return &tenantRun{
		spec:        sp,
		policy:      policy,
		serverHosts: serverHosts,
		tree:        tree,
		images:      images,
		iters:       iters,
		model:       plan.DefaultCostModel(workload.MeanBytes(images)),
	}, nil
}

// launchTenant instantiates a prepared tenant at the current simulated time:
// emits the arrival event and spawns its bootstrap process (tagged with the
// tenant ID so the whole per-tenant process tree inherits the tag).
func launchTenant(k *sim.Kernel, net *netmodel.Network, mon *monitor.System,
	acc *estacc.Tracker, clientHost netmodel.HostID, inj *faults.Injector, tr *tenantRun) {
	sp := tr.spec
	tr.arrivedAt = k.Now()
	if k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindTenantArrived, Tenant: sp.ID,
			Host: int32(clientHost), Iter: int32(sp.Iterations), Aux: sp.Algorithm,
		})
	}
	bp := k.Spawn(fmt.Sprintf("t%d.bootstrap", sp.ID), func(p *sim.Proc) {
		inst := placement.NewInstance(net, mon, tr.tree, tr.serverHosts, clientHost, tr.model)
		inst.Acc = acc
		initial := tr.policy.InitialPlacement(p, inst)
		tr.initial = initial.Clone()
		eng := dataflow.New(dataflow.Config{
			Net: net, Mon: mon, Tree: tr.tree,
			Initial:      initial,
			Images:       tr.images,
			Iterations:   sp.Iterations,
			Faults:       inj,
			SharedFaults: inj != nil,
			Tenant:       sp.ID,
			OnComplete:   func() { departTenant(k, tr) },
		})
		tr.eng = eng
		tr.policy.Attach(inst, eng)
		eng.Start()
	})
	bp.SetTenant(sp.ID)
	bp.SetSubsystem(obs.SubsysPlacement)
}

// departTenant records a tenant's departure the moment its engine completes
// or aborts.
func departTenant(k *sim.Kernel, tr *tenantRun) {
	if tr.departed {
		return
	}
	tr.departed = true
	tr.departedAt = k.Now()
	aux := "completed"
	delivered := 0
	if tr.eng.Aborted() {
		aux = "aborted"
	} else {
		delivered = len(tr.eng.Result().Arrivals)
	}
	if k.Telemetry() != nil {
		k.Emit(telemetry.Event{
			Kind: telemetry.KindTenantDeparted, Tenant: tr.spec.ID,
			Iter: int32(delivered), Dur: int64(tr.departedAt - tr.arrivedAt), Aux: aux,
		})
	}
}
