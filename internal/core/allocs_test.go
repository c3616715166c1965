package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"

	"wadc/internal/faults"
	"wadc/internal/placement"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
)

// allocDigest is runArtifacts plus the run result, so the on/off proof can
// compare the full RunResult field-for-field as well as the artifacts.
func allocDigest(t *testing.T, cfg RunConfig) (RunResult, []byte, []byte) {
	t.Helper()
	var events bytes.Buffer
	jw := telemetry.NewJSONLWriter(&events)
	cfg.Telemetry = jw
	cfg.CollectMetrics = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := jw.Flush(); err != nil {
		t.Fatalf("flush JSONL: %v", err)
	}
	var metrics bytes.Buffer
	if err := telemetry.WriteMetricsCSV(&metrics, res.Metrics); err != nil {
		t.Fatalf("WriteMetricsCSV: %v", err)
	}
	return res, events.Bytes(), metrics.Bytes()
}

// TestAllocsRunByteIdentical: allocation profiling brackets the run from the
// outside and never feeds anything back in — a tracked run must produce
// byte-identical JSONL event logs, metrics CSVs and (modulo the attached
// profile itself) an identical RunResult, for all four algorithms,
// fault-free and faulty.
func TestAllocsRunByteIdentical(t *testing.T) {
	faulty := faults.Config{
		Crashes:      1,
		MeanDowntime: 90 * time.Second,
		DropProb:     0.05,
		Horizon:      20 * time.Minute,
	}
	for name, mk := range chaosPolicies() {
		for _, mode := range []struct {
			label string
			fc    faults.Config
		}{
			{"fault-free", faults.Config{}},
			{"faulty", faulty},
		} {
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				cfg := RunConfig{
					Seed: 31, NumServers: 4, Shape: CompleteBinaryTree,
					Links: constLinks(64 * 1024), Policy: mk(),
					Workload: smallWorkload(6),
					Faults:   mode.fc,
				}
				resOff, jsonlOff, csvOff := allocDigest(t, cfg)
				cfg.Policy = mk() // fresh policy: they carry state
				cfg.TrackAllocs = true
				resOn, jsonlOn, csvOn := allocDigest(t, cfg)

				if len(jsonlOff) == 0 {
					t.Fatal("run emitted no telemetry events")
				}
				if !bytes.Equal(jsonlOff, jsonlOn) {
					t.Errorf("alloc tracking changed the JSONL event log: %d vs %d bytes (first diff at byte %d)",
						len(jsonlOff), len(jsonlOn), firstDiff(jsonlOff, jsonlOn))
				}
				if !bytes.Equal(csvOff, csvOn) {
					t.Errorf("alloc tracking changed the metrics CSV:\n--- off ---\n%s\n--- on ---\n%s", csvOff, csvOn)
				}
				if resOn.AllocSites == nil {
					t.Fatal("TrackAllocs set but AllocSites is nil")
				}
				resOn.AllocSites = nil
				if !reflect.DeepEqual(resOff, resOn) {
					t.Errorf("alloc tracking changed the run result:\n  off=%+v\n  on=%+v", resOff, resOn)
				}
			})
		}
	}
}

// TestAllocsRunReport checks the profile attached to a single-tenant run:
// coverage, subsystem attribution, per-op denominator, GC stats.
func TestAllocsRunReport(t *testing.T) {
	const iters = 6
	res := mustRun(t, RunConfig{
		Seed: 5, NumServers: 4, Shape: CompleteBinaryTree,
		Links:       constLinks(64 * 1024),
		Policy:      &placement.Global{Period: 2 * time.Minute},
		Workload:    smallWorkload(iters),
		TrackAllocs: true,
	})
	rep := res.AllocSites
	if rep == nil {
		t.Fatal("TrackAllocs set but AllocSites is nil")
	}
	if rep.Ops != iters {
		t.Errorf("Ops = %d, want %d delivered iterations", rep.Ops, iters)
	}
	if rep.TotalAllocs <= 0 || len(rep.Sites) == 0 {
		t.Fatalf("empty profile: %d total allocs, %d sites", rep.TotalAllocs, len(rep.Sites))
	}
	if cov := rep.Coverage(); cov < 0.9 {
		t.Errorf("coverage = %.3f, want >= 0.9 at profile rate 1", cov)
	}
	bySub := make(map[string]int64)
	for _, sub := range rep.Subsystems {
		bySub[sub.Name] = sub.Allocs
	}
	for _, name := range []string{"sim", "netmodel", "dataflow"} {
		if bySub[name] <= 0 {
			t.Errorf("subsystem %s attributed no allocations: %+v", name, rep.Subsystems)
		}
	}
	if rep.GC == nil {
		t.Error("AllocSites.GC is nil, want the window's GC stats")
	}

	// Disabled path: no profile, and the profiler is never armed.
	resOff := mustRun(t, RunConfig{
		Seed: 5, NumServers: 4, Shape: CompleteBinaryTree,
		Links:    constLinks(64 * 1024),
		Policy:   &placement.Global{Period: 2 * time.Minute},
		Workload: smallWorkload(iters),
	})
	if resOff.AllocSites != nil {
		t.Error("AllocSites populated without TrackAllocs")
	}
}

// TestAllocsMultiByteIdentical is the 10-tenant variant of the on/off proof.
func TestAllocsMultiByteIdentical(t *testing.T) {
	cfg := MultiConfig{
		Seed: 11, NumServers: 5,
		Links: constLinks(64 * 1024),
		Tenants: tenant.Population(tenant.PopulationConfig{
			N: 10, ArrivalRate: 2, Seed: 11, NumServers: 3, Iterations: 3,
		}),
		Workload: smallWorkload(3),
		Period:   2 * time.Minute,
	}
	_, jsonlOff, csvOff := multiDigest(t, cfg)
	cfg.TrackAllocs = true
	res, jsonlOn, csvOn := multiDigest(t, cfg)

	if len(jsonlOff) == 0 {
		t.Fatal("no telemetry captured")
	}
	if !bytes.Equal(jsonlOff, jsonlOn) {
		t.Errorf("alloc tracking changed the multi-tenant JSONL log: %d vs %d bytes (first diff at byte %d)",
			len(jsonlOff), len(jsonlOn), firstDiff(jsonlOff, jsonlOn))
	}
	if !bytes.Equal(csvOff, csvOn) {
		t.Errorf("alloc tracking changed the multi-tenant metrics CSV")
	}
	rep := res.AllocSites
	if rep == nil {
		t.Fatal("MultiConfig.TrackAllocs set but AllocSites is nil")
	}
	if res.Completed == 10 && rep.Ops != 30 {
		t.Errorf("Ops = %d, want 30 (10 tenants x 3 iterations)", rep.Ops)
	}
	if cov := rep.Coverage(); cov < 0.9 {
		t.Errorf("multi coverage = %.3f, want >= 0.9", cov)
	}
}

// TestAllocsFailedRunRestoresProfiler: a tracked run that is rejected after
// the capture started — inside the world builder or after it — must still
// end the capture, or every later allocation in the process stays sampled
// at MemProfileRate 1.
func TestAllocsFailedRunRestoresProfiler(t *testing.T) {
	rate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = rate }()
	clientCrash := faults.Config{Plan: &faults.Plan{Crashes: []faults.CrashWindow{
		{Host: 2, At: sim.Second, RecoverAt: 2 * sim.Second},
	}}}
	base := RunConfig{
		NumServers: 2, Links: constLinks(1024), Policy: placement.DownloadAll{},
		Workload: smallWorkload(3), TrackAllocs: true,
	}
	cases := map[string]func() error{
		"invalid fault plan": func() error {
			cfg := base
			cfg.Faults = clientCrash
			_, err := Run(cfg)
			return err
		},
		"iterations beyond the workload": func() error {
			cfg := base
			cfg.Iterations = 5
			_, err := Run(cfg)
			return err
		},
		"tenant iterations beyond the workload": func() error {
			_, err := RunMulti(MultiConfig{
				NumServers: 2, Links: constLinks(1024), Workload: smallWorkload(3), TrackAllocs: true,
				Tenants: []tenant.Spec{{ID: 1, Seed: 1, NumServers: 2, Iterations: 5, Algorithm: "one-shot"}},
			})
			return err
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			if err := run(); err == nil {
				t.Fatal("config accepted")
			}
			if runtime.MemProfileRate != rate {
				t.Errorf("MemProfileRate = %d after the failed run, want %d", runtime.MemProfileRate, rate)
				runtime.MemProfileRate = rate
			}
		})
	}
}
