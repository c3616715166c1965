// Command perfbench is the repository's benchmark. It generates one
// workload from a seed, drives the simulator through its public API from a
// single goroutine, checks every call's simulated outcome, and prints each
// metric by name with its unit. The last line of standard output is a JSON
// object with the keys correct, attempted, failed and metrics.
//
//	go run . --workload paper-8 --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics from untraced calls; --trace 1
// is the separate traced run that reports the per-layer metrics. See
// README.md for the workloads, the metrics and how to read the output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"wadc/internal/experiment"
	"wadc/internal/tenant"
	"wadc/internal/trace"
)

func main() {
	wl := flag.String("workload", "paper-8", "workload name, or all")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Int("seconds", 30, "how long the measured phase runs")
	traced := flag.Int("trace", 0, "1 for the traced per-layer run")
	printDigests := flag.Bool("print-digests", false, "print the workload's call digests for the seed and exit")
	flag.Parse()
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		os.Exit(2)
	}

	names := []string{*wl}
	if *wl == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	for _, name := range names {
		w, ok := findWorkload(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", name)
			os.Exit(2)
		}
		if *printDigests {
			if err := emitDigests(w, *seed); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
				os.Exit(1)
			}
			continue
		}
		budget := time.Duration(*seconds) * time.Second
		var res result
		if *traced == 1 {
			res = runTraced(w, *seed, budget)
		} else {
			res = runUntraced(w, *seed, budget)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints one metric line and records it in the result.
func (r *result) report(name string, value float64, unit, note string) {
	if err := checkName(name); err != nil {
		panic(err) // metric names are constants of this file
	}
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: value, Unit: unit}
	fmt.Printf("  %-28s %16s %-9s %s\n", name, strconv.FormatFloat(value, 'g', 8, 64), unit, note)
}

// printOnly prints a metric line for a metric the JSON result leaves out.
func printOnly(name string, value float64, unit, note string) {
	fmt.Printf("  %-28s %16s %-9s %s (not in JSON)\n", name, strconv.FormatFloat(value, 'g', 8, 64), unit, note)
}

// setupReps builds the workload's inputs repeatedly — at least minSetups
// times and until setupBudget has passed — and returns the last inputs with
// the CPU time each build took. With a tracer each build is one "setup" span.
func setupReps(w workloadSpec, seed int64, tr *tracer) (*inputs, []float64) {
	const minSetups, maxSetups, setupBudget = 5, 10000, time.Second
	var in *inputs
	var secs []float64
	start := time.Now()
	for len(secs) < minSetups || (time.Since(start) < setupBudget && len(secs) < maxSetups) {
		s := tr.begin("setup", 0)
		c0 := cpuTime()
		in = w.setup(seed, tr, s)
		secs = append(secs, (cpuTime() - c0).Seconds())
		tr.end(s)
	}
	return in, secs
}

// checker compares every call's outcome against the reference digests:
// the recorded ones for this seed when expected.json has them, otherwise the
// first pass's.
type checker struct {
	ref               []uint64
	attempted, failed int
	firstErr          error
	recorded          bool
}

func newChecker(w workloadSpec, seed int64) *checker {
	ref, ok := expectedDigests(w.name, seed)
	return &checker{ref: ref, recorded: ok}
}

func (c *checker) check(p pass) {
	if c.ref == nil {
		c.ref = make([]uint64, len(p.outs))
		for i, o := range p.outs {
			c.ref[i] = o.digest
		}
	}
	for i, o := range p.outs {
		c.attempted++
		err := o.err
		if err == nil && (i >= len(c.ref) || o.digest != c.ref[i]) {
			err = fmt.Errorf("call %d: digest %016x differs from the reference", i, o.digest)
		}
		if err != nil {
			c.failed++
			if c.firstErr == nil {
				c.firstErr = err
			}
		}
	}
}

func (c *checker) finish(res *result) {
	res.Attempted, res.Failed = c.attempted, c.failed
	res.Correct = c.failed == 0 && c.attempted > 0
	src := "first pass"
	if c.recorded {
		src = "recorded digests"
	}
	fmt.Printf("  check: %d calls, %d failed (reference: %s)\n", c.attempted, c.failed, src)
	if c.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", c.firstErr)
	}
}

// warmUp runs the first call once, untimed and unchecked, so lazy runtime
// set-up and heap growth happen before measurement.
func warmUp(in *inputs) { in.calls[0].run(nil, nil) }

// runUntraced measures the end-to-end metrics: untraced passes until the
// budget is spent, at least one.
func runUntraced(w workloadSpec, seed int64, budget time.Duration) result {
	fmt.Printf("workload %s seed %d: end-to-end (untraced)\n", w.name, seed)
	in, setups := setupReps(w, seed, nil)
	chk := newChecker(w, seed)
	warmUp(in)
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start) < budget {
		p := runPass(in, false, nil)
		chk.check(p)
		passes = append(passes, p)
	}
	// Each call does identical work on every pass, so its median over passes
	// filters noise that hits only some passes; a pass costs the sum of its
	// calls' medians.
	callMs := perCallMedian(passes, func(p pass) []float64 { return p.callMs })
	callCPU := perCallMedian(passes, func(p pass) []float64 { return p.callCPU })
	var wall, cpu float64
	for i := range callMs {
		wall += callMs[i] / 1e3
		cpu += callCPU[i]
	}
	allocs := make([]float64, len(passes))
	for i, p := range passes {
		allocs[i] = float64(p.alloc) / 1e6
	}
	var res result
	note := fmt.Sprintf("sum over %d calls of each call's median over %d passes", len(in.calls), len(passes))
	res.report("setup_s", median(setups), "s", fmt.Sprintf("median CPU time of %d set-ups", len(setups)))
	res.report("cpu_s", cpu, "s", note+", user+sys")
	res.report("events_per_cpu_s", float64(passes[0].counts.events)/cpu, "events/s", "kernel events per pass / cpu_s")
	res.report("run_cpu_p50_ms", median(callCPU)*1e3, "ms", fmt.Sprintf("median over %d calls of each call's median CPU time", len(callCPU)))
	// Wall time also counts the time the host did not run the process, which
	// on a shared VM varies far beyond any usable bound: printed, not gated.
	printOnly("wall_s", wall, "s", note)
	printOnly("run_p50_ms", median(callMs), "ms", fmt.Sprintf("median over %d calls of each call's median wall time", len(callMs)))
	var all []float64
	for _, p := range passes {
		all = append(all, p.callMs...)
	}
	if p90, ok := percentile(all, 0.9); ok {
		printOnly("run_p90_ms", p90, "ms", fmt.Sprintf("wall, n=%d calls", len(all)))
	} else {
		fmt.Printf("  %-28s %16s %-9s n=%d calls, fewer than 100\n", "run_p90_ms", "n/a", "ms", len(all))
	}
	res.report("alloc_mb", median(allocs), "MB", fmt.Sprintf("median of %d passes, TotalAlloc delta", len(passes)))
	res.report("max_rss_mb", float64(maxRSSBytes())/1e6, "MB", "peak RSS of the process")
	chk.finish(&res)
	printOnly("fail_frac", float64(res.Failed)/float64(res.Attempted), "fraction", "see attempted and failed")
	return res
}

// runTraced is the separate traced run: spans around every public call the
// benchmark makes, the obs region clock attached to every simulator call,
// alternating with untraced passes so the tracing overhead is measured in
// the same process. Its digests must equal the untraced passes'.
func runTraced(w workloadSpec, seed int64, budget time.Duration) result {
	fmt.Printf("workload %s seed %d: per-layer (traced)\n", w.name, seed)
	tr := newTracer()
	in, _ := setupReps(w, seed, tr)
	setupSelf := setupLayerMs(tr.spans)
	chk := newChecker(w, seed)
	warmUp(in)

	var plain, traced []pass
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < budget {
		p := runPass(in, false, nil)
		chk.check(p)
		plain = append(plain, p)
		p = runPass(in, true, tr)
		chk.check(p)
		traced = append(traced, p)
	}

	// The per-call counts are identical on every pass (the digests say so);
	// report the first pass's sums.
	n := float64(len(in.calls))
	cnt := plain[0].counts
	hitRate := cnt.hitRate / n
	if in.entry == "core.RunMulti" {
		var sink monitorSink
		s := tr.begin("core.RunMulti+monitorSink", 0)
		o := in.calls[0].run(nil, &sink)
		tr.end(s)
		chk.check(pass{outs: []outcome{o}})
		cnt.probes, cnt.passive, hitRate = sink.probes, sink.passive, sink.hitRate()
	}
	rep := runReplays(in, tr)
	const spanNote, replayNote = "setup span self time, median of set-ups",
		"replay at this workload's shape: the workload does not call it"
	assignNote, populationNote := spanNote, spanNote
	if in.entry == "core.RunMulti" {
		setupSelf["experiment"], assignNote = replayAssignMs(tr, seed), replayNote
	} else {
		setupSelf["tenant"], populationNote = replayPopulationMs(tr, seed, in), replayNote
	}

	med := func(ps []pass, f func(pass) float64) float64 {
		xs := make([]float64, len(ps))
		for i, p := range ps {
			xs[i] = f(p)
		}
		return median(xs)
	}
	region := func(name string) float64 {
		return med(traced, func(p pass) float64 { return float64(p.regions[name]) / 1e6 })
	}
	var callSpans []float64
	for _, p := range traced {
		callSpans = append(callSpans, p.callMs...)
	}
	plainCPU := med(plain, func(p pass) float64 { return p.cpu.Seconds() })
	overhead := med(traced, func(p pass) float64 { return p.wall.Seconds() }) /
		med(plain, func(p pass) float64 { return p.wall.Seconds() })
	yield := 0.0
	if cnt.candidates > 0 {
		yield = float64(cnt.placementMoves) / float64(cnt.candidates)
	}
	estShare := (rep.beforeSendNs + rep.afterNs) * float64(cnt.transfers) / (plainCPU * 1e9)
	perPass := fmt.Sprintf("per pass of %d calls", len(in.calls))
	regionNote := fmt.Sprintf("obs region clock, median of %d traced passes", len(traced))

	var res result
	res.report("sim.events", float64(cnt.events), "count", perPass)
	res.report("sim.event_ns", rep.eventNs, "ns", "replay: Kernel.After callback chain")
	res.report("sim.switch_ns", rep.switchNs, "ns", "replay: Proc.Hold loop")
	res.report("sim.region_ms", region("sim"), "ms", regionNote)
	res.report("trace.pool_ms", setupSelf["trace"], "ms", spanNote)
	res.report("trace.transfer_duration_ns", rep.transferDurationNs, "ns", "replay over the workload's link traces")
	res.report("netmodel.transfers", float64(cnt.transfers), "count", perPass)
	res.report("netmodel.mb_moved", float64(cnt.bytes)/1e6, "MB", perPass)
	res.report("netmodel.send_ns", rep.sendNs, "ns", "replay: Network.Send on a bare network, no observer")
	res.report("netmodel.region_ms", region("netmodel"), "ms", regionNote+"; includes monitor piggyback work")
	res.report("monitor.probes", float64(cnt.probes), "count", perPass)
	res.report("monitor.passive", float64(cnt.passive), "count", perPass)
	res.report("monitor.cache_hit_rate", hitRate, "fraction", "estimates served from cache")
	res.report("monitor.before_send_ns", rep.beforeSendNs, "ns", fmt.Sprintf("replay: %d hosts, %d cached pairs", rep.cacheHost, rep.cacheEntries))
	res.report("monitor.after_deliver_ns", rep.afterNs, "ns", "replay, same caches")
	res.report("monitor.bytes_per_send", rep.bytesPerSend, "B", "replay: heap bytes per BeforeSend")
	res.report("monitor.est_share", estShare, "fraction", "(before+after ns) x transfers / untraced CPU ns")
	res.report("plan.evaluate_ns", rep.evaluateNs, "ns", "replay: CostModel.Evaluate, traces at t=0")
	res.report("placement.decisions", float64(cnt.decisions), "count", perPass)
	res.report("placement.candidates", float64(cnt.candidates), "count", perPass)
	res.report("placement.moves", float64(cnt.placementMoves), "count", perPass)
	res.report("placement.move_yield", yield, "fraction", "moves / candidates")
	res.report("placement.oneshot_ms", rep.oneShotNs/1e6, "ms", fmt.Sprintf("replay: OneShotOptimize, %d hosts", in.hosts))
	res.report("placement.region_ms", region("placement"), "ms", regionNote)
	res.report("dataflow.moves", float64(cnt.dataflowMoves), "count", perPass)
	res.report("dataflow.switches", float64(cnt.switches), "count", perPass)
	res.report("dataflow.forwarded", float64(cnt.forwarded), "count", perPass)
	res.report("dataflow.region_ms", region("dataflow"), "ms", regionNote)
	res.report("core.run_ms", median(callSpans), "ms", fmt.Sprintf("median %s span, n=%d", in.entry, len(callSpans)))
	res.report("experiment.assign_ms", setupSelf["experiment"], "ms", assignNote)
	res.report("tenant.population_ms", setupSelf["tenant"], "ms", populationNote)
	res.report("tenant.completed_frac", float64(cnt.completed)/float64(cnt.expectCompleted), "fraction", "completed / attempted runs or tenants")
	res.report("bench.trace_overhead", overhead, "ratio", "traced wall_s / untraced wall_s")

	fmt.Println("  spans (self time = span minus its children):")
	writeSummary(os.Stdout, tr.spans)
	if path, err := saveSpans(w.name, seed, tr.spans); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
	} else {
		fmt.Printf("  spans written to %s\n", path)
	}
	chk.finish(&res)
	return res
}

// perCallMedian returns each call's median, over passes, of a per-call
// sample.
func perCallMedian(passes []pass, sample func(pass) []float64) []float64 {
	out := make([]float64, len(sample(passes[0])))
	xs := make([]float64, len(passes))
	for i := range out {
		for j, p := range passes {
			xs[j] = sample(p)[i]
		}
		out[i] = median(xs)
	}
	return out
}

// setupLayerMs returns, per layer, the median over set-ups of the self time
// of that layer's setup spans (span names are "<layer>.<Func>").
func setupLayerMs(spans []span) map[string]float64 {
	self := selfTimes(spans)
	perSetup := make(map[int]map[string]float64) // group -> layer -> ms
	for i, s := range spans {
		if s.Parent == 0 {
			continue
		}
		layer, _, _ := strings.Cut(s.Name, ".")
		if perSetup[s.Group] == nil {
			perSetup[s.Group] = make(map[string]float64)
		}
		perSetup[s.Group][layer] += float64(self[i]) / 1e6
	}
	samples := make(map[string][]float64)
	for _, layers := range perSetup {
		for l, ms := range layers {
			samples[l] = append(samples[l], ms)
		}
	}
	out := make(map[string]float64)
	for l, xs := range samples {
		out[l] = median(xs)
	}
	return out
}

// replayAssignMs times experiment.GenerateAssignments for one configuration
// of the tenant pool's size, for the workload that does not call it.
func replayAssignMs(tr *tracer, seed int64) float64 {
	pool := trace.NewStudyPool(sweepSeed(seed))
	root := tr.begin("replay", 0)
	defer tr.end(root)
	ns, _ := timeOp(tr, root, "replay.experiment.GenerateAssignments", func(n int) {
		_ = experiment.GenerateAssignments(pool, n, tenantPool, seed)
	})
	return ns / 1e6
}

// replayPopulationMs times tenant.Population for as many tenants as the
// workload has calls, each shaped like one call, for the workloads that do
// not call it.
func replayPopulationMs(tr *tracer, seed int64, in *inputs) float64 {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	ns, _ := timeOp(tr, root, "replay.tenant.Population", func(n int) {
		for i := 0; i < n; i++ {
			_ = tenant.Population(tenant.PopulationConfig{
				N: len(in.calls), ArrivalRate: 10, Seed: seed,
				NumServers: in.treeLeaves, Iterations: tenantIterations,
			})
		}
	})
	return ns / 1e6
}

// spansDir is where the traced run writes its spans.
var spansDir = filepath.Join(".bench_build", "spans")

// saveSpans writes the traced run's spans, once, at the end of the run.
func saveSpans(workload string, seed int64, spans []span) (string, error) {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
