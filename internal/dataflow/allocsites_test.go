package dataflow

import (
	"os"
	"path/filepath"
	"testing"

	"wadc/internal/obs"
)

// TestAllocSiteCapture profiles the same workload as BenchmarkDataflowPipeline
// (full 4-server, 8-iteration demand-driven pipelines) at profile rate 1 and
// checks the attribution contract the bench tooling depends on: at least 95%
// of the run's allocations resolve to named sites, every major subsystem is
// represented, and the per-op arithmetic uses the pipeline count as the
// denominator so the numbers line up with the benchmark's allocs/op column.
//
// When ALLOCSITES_DIR is set (the CI profile job does this) the report is
// also written as ALLOCSITES_DIR/dataflow_pipeline.json for `simscope
// allocs` and the CI artifact upload; without it the test is purely an
// assertion.
func TestAllocSiteCapture(t *testing.T) {
	const runs = 10
	cap := obs.StartAllocCapture()
	for i := 0; i < runs; i++ {
		r := newRig(4, 8, 64*1024, 100*1024)
		e := r.engine(nil)
		e.Start()
		if err := r.k.Run(); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if !e.Completed() {
			t.Fatal("engine did not complete")
		}
	}
	rep := cap.Finish(runs)

	if rep.Ops != runs {
		t.Errorf("Ops = %d, want %d", rep.Ops, runs)
	}
	if cov := rep.Coverage(); cov < 0.95 {
		t.Errorf("coverage = %.3f, want >= 0.95 of the pipeline's allocations attributed", cov)
	}
	if len(rep.Sites) == 0 || rep.TotalAllocs == 0 {
		t.Fatalf("empty profile: %d allocs, %d sites", rep.TotalAllocs, len(rep.Sites))
	}
	bySub := make(map[string]int64)
	for _, sub := range rep.Subsystems {
		bySub[sub.Name] = sub.Allocs
	}
	for _, name := range []string{"sim", "netmodel", "dataflow", "monitor"} {
		if bySub[name] <= 0 {
			t.Errorf("subsystem %s attributed no allocations: %+v", name, rep.Subsystems)
		}
	}

	dir := os.Getenv("ALLOCSITES_DIR")
	if dir == "" {
		return
	}
	path := filepath.Join(dir, "dataflow_pipeline.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatalf("ALLOCSITES_DIR: %v", err)
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		t.Fatalf("writing %s: %v", path, err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s (%d sites, %.1f allocs/op)", path, len(rep.Sites),
		float64(rep.TotalAllocs)/float64(rep.Ops))
}
