package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"slices"
	"time"

	"wadc/internal/core"
	"wadc/internal/experiment"
	"wadc/internal/netmodel"
	"wadc/internal/obs"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

// workloadSpec names one benchmark workload and how to build its inputs.
// README.md records why each workload was chosen.
type workloadSpec struct {
	name  string
	setup func(seed int64, tr *tracer, parent int) *inputs
}

var workloads = []workloadSpec{
	{
		name: "paper-8",
		setup: func(seed int64, tr *tracer, parent int) *inputs {
			return sweepInputs(seed, 8, 180, 25, nil, tr, parent)
		},
	},
	{
		name: "wide-32",
		setup: func(seed int64, tr *tracer, parent int) *inputs {
			return sweepInputs(seed, 32, 20, 20, []string{"global", "local"}, tr, parent)
		},
	},
	{
		name:  "tenants-1000",
		setup: tenantInputs,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// inputs is everything one pass of a workload needs, built by setup from
// the seed alone.
type inputs struct {
	entry string // the public entry point the calls use
	calls []call
	// Shape of the workload for the per-layer replays.
	hosts      int            // hosts in the simulated network, client included
	treeLeaves int            // servers per combination tree
	meanBytes  int64          // mean image size
	links      []*trace.Trace // the traces the workload's links carry
}

// call is one measured call into the program's public API.
type call struct {
	name string
	run  func(perf *obs.Recorder, sink telemetry.Sink) outcome
}

// outcome is what one call produced: its digest, its exact work counts and,
// when a recorder was attached, its region clock.
type outcome struct {
	err    error
	digest uint64
	counts counts
	perf   *obs.Report
}

// counts are the exact per-layer work counts of one call, taken from public
// result fields.
type counts struct {
	events          int64
	transfers       int64
	bytes           int64
	probes          int64
	passive         int64
	hitRate         float64 // summed over calls; divide by the call count
	decisions       int64
	candidates      int64
	placementMoves  int64
	dataflowMoves   int64
	switches        int64
	forwarded       int64
	completed       int64
	expectCompleted int64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.transfers += o.transfers
	c.bytes += o.bytes
	c.probes += o.probes
	c.passive += o.passive
	c.hitRate += o.hitRate
	c.decisions += o.decisions
	c.candidates += o.candidates
	c.placementMoves += o.placementMoves
	c.dataflowMoves += o.dataflowMoves
	c.switches += o.switches
	c.forwarded += o.forwarded
	c.completed += o.completed
	c.expectCompleted += o.expectCompleted
}

// runSeed is the per-configuration seed experiment.RunSweep gives a cell.
func runSeed(base int64, config int) int64 { return base*7919 + int64(config) }

// sweepSeed maps a benchmark seed to the sweep seed RunSweep would use (it
// replaces 0 with 1).
func sweepSeed(seed int64) int64 {
	if seed == 0 {
		return 1
	}
	return seed
}

// sweepInputs builds a RunSweep-shaped workload: the study trace pool and
// configurations from seed, then one core.Run cell per (configuration,
// algorithm), with the seeds and policies RunSweep would use.
func sweepInputs(seed int64, servers, images, configs int, algNames []string, tr *tracer, parent int) *inputs {
	seed = sweepSeed(seed)
	opts := experiment.Options{Configs: configs, Servers: servers, Iterations: images, Seed: seed, Period: placement.DefaultPeriod}
	wl := workload.Config{ImagesPerServer: images, MeanBytes: workload.DefaultMeanBytes, SpreadFrac: workload.DefaultSpreadFrac}

	s := tr.begin("trace.NewStudyPool", parent)
	pool := trace.NewStudyPool(seed)
	tr.end(s)
	s = tr.begin("experiment.GenerateAssignments", parent)
	assigns := experiment.GenerateAssignments(pool, configs, servers, seed)
	tr.end(s)

	var algs []experiment.AlgSpec
	for _, a := range experiment.StandardAlgorithms() {
		if algNames == nil || slices.Contains(algNames, a.Name) {
			algs = append(algs, a)
		}
	}
	in := &inputs{entry: "core.Run", hosts: servers + 1, treeLeaves: servers, meanBytes: wl.MeanBytes}
	for c, as := range assigns {
		links := as.LinkFn()
		rs := runSeed(seed, c)
		for _, a := range algs {
			in.calls = append(in.calls, call{
				name: fmt.Sprintf("c%d/%s", c, a.Name),
				run: func(perf *obs.Recorder, sink telemetry.Sink) outcome {
					res, err := core.Run(core.RunConfig{
						Seed: rs, NumServers: servers, Shape: core.CompleteBinaryTree,
						Links: links, Policy: a.New(opts, rs), Workload: wl,
						Perf: perf, Telemetry: sink,
					})
					if err != nil {
						return outcome{err: err}
					}
					return runOutcome(res, images)
				},
			})
		}
	}
	for x := 0; x < servers+1; x++ {
		for y := x + 1; y < servers+1; y++ {
			in.links = append(in.links, assigns[0].Trace(netmodel.HostID(x), netmodel.HostID(y)))
		}
	}
	return in
}

// Shape of the tenants-1000 workload (BenchmarkMultiTenant1000's shape).
const (
	tenantCount      = 1000
	tenantPool       = 8
	tenantServers    = 3
	tenantIterations = 4
	tenantLinkBW     = 128 * 1024
)

// tenantInputs builds the multi-tenant workload: a seeded open-loop tenant
// population on an 8-server pool whose links are constant.
func tenantInputs(seed int64, tr *tracer, parent int) *inputs {
	s := tr.begin("tenant.Population", parent)
	specs := tenant.Population(tenant.PopulationConfig{
		N: tenantCount, ArrivalRate: 10, Seed: seed,
		NumServers: tenantServers, Iterations: tenantIterations,
	})
	tr.end(s)
	s = tr.begin("trace.Constant", parent)
	hosts := tenantPool + 1
	table := make([][]*trace.Trace, hosts)
	var links []*trace.Trace
	for x := range table {
		table[x] = make([]*trace.Trace, hosts)
	}
	for x := 0; x < hosts; x++ {
		for y := x + 1; y < hosts; y++ {
			t := trace.Constant(fmt.Sprintf("h%d-h%d", x, y), tenantLinkBW)
			table[x][y], table[y][x] = t, t
			links = append(links, t)
		}
	}
	tr.end(s)
	wl := workload.Config{ImagesPerServer: tenantIterations, MeanBytes: 64 * 1024, SpreadFrac: 0.1}
	run := func(perf *obs.Recorder, sink telemetry.Sink) outcome {
		res, err := core.RunMulti(core.MultiConfig{
			Seed: seed, NumServers: tenantPool,
			Links:    func(a, b netmodel.HostID) *trace.Trace { return table[a][b] },
			Tenants:  specs,
			Workload: wl,
			Period:   5 * time.Minute,
			Perf:     perf, Telemetry: sink,
		})
		if err != nil {
			return outcome{err: err}
		}
		return multiOutcome(res, len(specs))
	}
	return &inputs{
		entry:      "core.RunMulti",
		calls:      []call{{name: "multi", run: run}},
		hosts:      hosts,
		treeLeaves: tenantServers,
		meanBytes:  wl.MeanBytes,
		links:      links,
	}
}

// runOutcome checks one core.Run result and digests it.
func runOutcome(res core.RunResult, images int) outcome {
	o := outcome{
		digest: digestRun(res),
		perf:   res.Perf,
		counts: counts{
			events: res.KernelEvents, transfers: res.NetworkTransfers, bytes: res.BytesMoved,
			probes: res.Probes, passive: res.PassiveMeasurements, hitRate: res.CacheHitRate,
			decisions: int64(res.Decisions.Decisions), candidates: int64(res.Decisions.Candidates),
			placementMoves: int64(res.Decisions.Moves),
			dataflowMoves:  int64(res.Moves), switches: int64(res.Switches), forwarded: int64(res.Forwarded),
			completed: 1, expectCompleted: 1,
		},
	}
	o.err = checkArrivals(res.Arrivals, res.Completion, images)
	if o.err == nil && res.FinalPlacement == nil {
		o.err = fmt.Errorf("no final placement")
	}
	return o
}

// multiOutcome checks one core.RunMulti result and digests it.
func multiOutcome(res core.MultiResult, n int) outcome {
	o := outcome{
		digest: digestMulti(res),
		perf:   res.Perf,
		counts: counts{
			events: res.KernelEvents, transfers: res.NetworkTransfers, bytes: res.BytesMoved,
			completed: int64(res.Completed), expectCompleted: int64(n),
		},
	}
	for _, t := range res.Tenants {
		o.counts.decisions += int64(t.Decisions.Decisions)
		o.counts.candidates += int64(t.Decisions.Candidates)
		o.counts.placementMoves += int64(t.Decisions.Moves)
		o.counts.dataflowMoves += int64(t.Result.Moves)
		o.counts.switches += int64(t.Result.Switches)
		o.counts.forwarded += int64(t.Result.Forwarded)
	}
	switch {
	case len(res.Tenants) != n || res.Completed != n || res.Aborted != 0:
		o.err = fmt.Errorf("%d of %d tenants completed, %d aborted", res.Completed, n, res.Aborted)
	case res.PendingEvents != 0:
		o.err = fmt.Errorf("%d events left after teardown", res.PendingEvents)
	}
	for _, t := range res.Tenants {
		if o.err != nil {
			break
		}
		if err := checkArrivals(t.Result.Arrivals, t.Result.Completion, t.Spec.Iterations); err != nil {
			o.err = fmt.Errorf("tenant %d: %w", t.Spec.ID, err)
		} else if t.Delivered != t.Spec.Iterations || t.FinalPlacement == nil {
			o.err = fmt.Errorf("tenant %d: delivered %d of %d", t.Spec.ID, t.Delivered, t.Spec.Iterations)
		}
	}
	return o
}

// checkArrivals verifies that the client received every iteration, in
// non-decreasing time order, and that completion is the last arrival.
func checkArrivals(arr []sim.Time, completion sim.Time, want int) error {
	if len(arr) != want {
		return fmt.Errorf("%d arrivals, want %d", len(arr), want)
	}
	for i := 1; i < len(arr); i++ {
		if arr[i] < arr[i-1] {
			return fmt.Errorf("arrival %d at %v precedes arrival %d at %v", i, arr[i], i-1, arr[i-1])
		}
	}
	if want > 0 && completion != arr[len(arr)-1] {
		return fmt.Errorf("completion %v is not the last arrival %v", completion, arr[len(arr)-1])
	}
	return nil
}

// digest accumulates a 64-bit FNV-1a hash of a simulated outcome.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digest) times(ts []sim.Time) {
	d.int(int64(len(ts)))
	for _, t := range ts {
		d.int(int64(t))
	}
}

func (d *digest) placement(p *plan.Placement) {
	if p == nil {
		d.int(-1)
		return
	}
	locs := p.Locations()
	d.int(int64(len(locs)))
	for _, h := range locs {
		d.int(int64(h))
	}
}

// digestRun hashes the simulated outcome of one core.Run: arrivals,
// completion, moves, switches, forwarded, transfers, bytes, probes, passive
// measurements, kernel events and the final placement.
func digestRun(r core.RunResult) uint64 {
	d := newDigest()
	d.times(r.Arrivals)
	for _, v := range []int64{
		int64(r.Completion), int64(r.Moves), int64(r.Switches), int64(r.Forwarded),
		r.NetworkTransfers, r.BytesMoved, r.Probes, r.PassiveMeasurements, r.KernelEvents,
	} {
		d.int(v)
	}
	d.placement(r.FinalPlacement)
	return d.h.Sum64()
}

// digestMulti hashes the simulated outcome of one core.RunMulti: the shared
// network totals and kernel events, then per tenant its completion, arrival
// and departure times, arrivals, moves, switches, forwarded and final
// placement.
func digestMulti(r core.MultiResult) uint64 {
	d := newDigest()
	for _, v := range []int64{
		int64(r.Completed), int64(r.Aborted), r.NetworkTransfers, r.BytesMoved,
		r.KernelEvents, int64(r.PendingEvents), int64(len(r.Tenants)),
	} {
		d.int(v)
	}
	for _, t := range r.Tenants {
		completed := int64(0)
		if t.Completed {
			completed = 1
		}
		for _, v := range []int64{
			int64(t.Spec.ID), completed, int64(t.Delivered), int64(t.ArrivedAt), int64(t.DepartedAt),
			int64(t.Result.Moves), int64(t.Result.Switches), int64(t.Result.Forwarded),
		} {
			d.int(v)
		}
		d.times(t.Result.Arrivals)
		d.placement(t.FinalPlacement)
	}
	return d.h.Sum64()
}
