package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"testing"
	"time"

	"wadc/internal/core"
	"wadc/internal/experiment"
	"wadc/internal/placement"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/trace"
	"wadc/internal/workload"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	cases := []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.9, false}, {100, 0.9, true}, {19, 0.5, false}, {20, 0.5, true},
		{999, 0.99, false}, {1000, 0.99, true}, {0, 0.5, false},
	}
	for _, c := range cases {
		if _, ok := percentile(xs(c.n), c.q); ok != c.ok {
			t.Errorf("percentile(n=%d, q=%v) reported=%v, want %v", c.n, c.q, ok, c.ok)
		}
	}
	if v, _ := percentile(xs(100), 0.9); math.Abs(v-90.1) > 1e-9 {
		t.Errorf("p90 of 1..100 = %v, want 90.1", v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "monitor.before_send_ns", "tenant.completed_frac", "9-x"} {
		if err := checkName(ok); err != nil {
			t.Errorf("checkName(%q) = %v", ok, err)
		}
	}
	for _, bad := range []string{"", "wall s", "a/b", "é", "_lead", ".lead", string(make([]byte, 65))} {
		if checkName(bad) == nil {
			t.Errorf("checkName(%q) accepted", bad)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "pass", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 20 * ms, End: 50 * ms},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90 * ms, End: 120 * ms}, // ends after the parent
		{ID: 5, Parent: 3, Name: "d", Start: 25 * ms, End: 35 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 20 * ms, 30 * ms, 10 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}

	tr := newTracer()
	root := tr.begin("setup", 0)
	child := tr.begin("trace.NewStudyPool", root)
	tr.end(child)
	tr.end(root)
	other := tr.begin("core.Run", 0)
	tr.end(other)
	if tr.spans[1].Group != tr.spans[0].Group || tr.spans[2].Group == tr.spans[0].Group {
		t.Errorf("groups = %d %d %d: a child must share its root's group, a new root must not",
			tr.spans[0].Group, tr.spans[1].Group, tr.spans[2].Group)
	}
}

// tinyRun is one two-server, two-image cell under the global algorithm.
func tinyRun(t *testing.T, sink telemetry.Sink) core.RunResult {
	t.Helper()
	pool := trace.NewStudyPool(3)
	links := experiment.GenerateAssignments(pool, 1, 2, 3)[0].LinkFn()
	res, err := core.Run(core.RunConfig{
		Seed: 3, NumServers: 2, Links: links,
		Policy:    &placement.Global{Period: placement.DefaultPeriod},
		Workload:  workload.Config{ImagesPerServer: 2, MeanBytes: workload.DefaultMeanBytes, SpreadFrac: workload.DefaultSpreadFrac},
		Telemetry: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDigestChangesWithOneArrival(t *testing.T) {
	res := tinyRun(t, nil)
	base := digestRun(res)
	if again := digestRun(tinyRun(t, nil)); again != base {
		t.Fatalf("same-seed runs digest %016x and %016x", base, again)
	}
	res.Arrivals = append([]sim.Time(nil), res.Arrivals...)
	res.Arrivals[0]++
	if digestRun(res) == base {
		t.Error("changing one arrival by 1ns left the run digest unchanged")
	}

	multi := core.MultiResult{Completed: 1, Tenants: []core.TenantResult{{Completed: true, Delivered: 2}}}
	multi.Tenants[0].Result.Arrivals = []sim.Time{5, 9}
	before := digestMulti(multi)
	multi.Tenants[0].Result.Arrivals[1] = 10
	if digestMulti(multi) == before {
		t.Error("changing one tenant arrival left the multi digest unchanged")
	}
}

func TestMonitorSinkMatchesRunResult(t *testing.T) {
	var sink monitorSink
	res := tinyRun(t, &sink)
	if sink.probes != res.Probes || sink.passive != res.PassiveMeasurements {
		t.Errorf("sink counted %d probes, %d passive; result has %d, %d",
			sink.probes, sink.passive, res.Probes, res.PassiveMeasurements)
	}
	if got := sink.hitRate(); got != res.CacheHitRate {
		t.Errorf("sink hit rate %v, result %v", got, res.CacheHitRate)
	}
}

// tinyWorkload is a sweep small enough for a unit test: 2 servers, 2
// images, one configuration, all four algorithms.
var tinyWorkload = workloadSpec{
	name: "tiny",
	setup: func(seed int64, tr *tracer, parent int) *inputs {
		return sweepInputs(seed, 2, 2, 1, nil, tr, parent)
	},
}

// benchmarkFile is the part of BENCHMARK.json these tests compare against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// sameMetrics checks that a run reported exactly the declared metrics, with
// their declared units.
func sameMetrics(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var names []string
	for _, m := range want {
		if err := checkName(m.Name); err != nil {
			t.Error(err)
		}
		g, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("metric %s declared but not reported", m.Name)
		case g.Unit != m.Unit:
			t.Errorf("metric %s reported in %s, declared in %s", m.Name, g.Unit, m.Unit)
		}
		names = append(names, m.Name)
	}
	sort.Strings(names)
	for name := range got {
		if i := sort.SearchStrings(names, name); i == len(names) || names[i] != name {
			t.Errorf("metric %s reported but not declared", name)
		}
	}
}

func TestRunsReportDeclaredMetricsAndCheckOutputs(t *testing.T) {
	f := readBenchmarkFile(t)
	spansDir = t.TempDir()

	res := runUntraced(tinyWorkload, 5, 0)
	sameMetrics(t, res.Metrics, f.EndToEnd)
	if !res.Correct || res.Failed != 0 || res.Attempted != 4 {
		t.Errorf("untraced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}

	res = runTraced(tinyWorkload, 5, 0)
	sameMetrics(t, res.Metrics, f.PerLayer)
	// One untraced and one traced pass, both checked against the first.
	if !res.Correct || res.Failed != 0 || res.Attempted != 8 {
		t.Errorf("traced: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCheckerCountsMismatches(t *testing.T) {
	chk := &checker{}
	chk.check(pass{outs: []outcome{{digest: 1}, {digest: 2}}})
	chk.check(pass{outs: []outcome{{digest: 1}, {digest: 3}}})
	var res result
	chk.finish(&res)
	if res.Attempted != 4 || res.Failed != 1 || res.Correct {
		t.Errorf("attempted=%d failed=%d correct=%v, want 4, 1, false", res.Attempted, res.Failed, res.Correct)
	}
}

func TestExpectedDigestsCoverBothSeeds(t *testing.T) {
	var f expectedFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		t.Fatal(err)
	}
	if f.DefaultSeed != defaultSeed || f.HeldOutSeed != heldOutSeed {
		t.Errorf("expected.json seeds %d/%d, code %d/%d", f.DefaultSeed, f.HeldOutSeed, defaultSeed, heldOutSeed)
	}
	for _, w := range workloads {
		calls := len(w.setup(defaultSeed, nil, 0).calls)
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			d, ok := expectedDigests(w.name, seed)
			if !ok || len(d) != calls {
				t.Errorf("%s seed %d: %d recorded digests, want %d", w.name, seed, len(d), calls)
			}
		}
	}
}

// TestTenantsDigestMatchesRecorded runs the cheapest workload's call once
// and compares it with the digest recorded for the default seed.
func TestTenantsDigestMatchesRecorded(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1000-tenant simulation")
	}
	w, _ := findWorkload("tenants-1000")
	want, ok := expectedDigests(w.name, defaultSeed)
	if !ok {
		t.Fatal("no recorded digest")
	}
	o := w.setup(defaultSeed, nil, 0).calls[0].run(nil, nil)
	if o.err != nil || o.digest != want[0] {
		t.Errorf("digest %016x err %v, recorded %016x", o.digest, o.err, want[0])
	}
}
