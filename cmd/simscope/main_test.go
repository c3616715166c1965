package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

// writeLog writes a minimal JSONL event log and returns its path.
func writeLog(t *testing.T, name string, events []telemetry.Event) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestNoArgsIsUsageError(t *testing.T) {
	code, _, stderr := runCLI()
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr lacks usage text:\n%s", stderr)
	}
}

func TestUnknownSubcommand(t *testing.T) {
	code, _, stderr := runCLI("frobnicate")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown command "frobnicate"`) || !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestMissingLogPathIsUsageError(t *testing.T) {
	for _, args := range [][]string{
		{"timeline"},
		{"decisions"},
		{"critpath"},
		{"diff", "only-one.jsonl"},
	} {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("%v: exit = %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "usage:") {
			t.Errorf("%v: stderr lacks usage text:\n%s", args, stderr)
		}
	}
}

func TestUnreadableLogIsRuntimeError(t *testing.T) {
	code, _, stderr := runCLI("timeline", filepath.Join(t.TempDir(), "nope.jsonl"))
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "simscope:") {
		t.Errorf("stderr = %q", stderr)
	}
}

func TestBadFlagIsUsageError(t *testing.T) {
	code, _, stderr := runCLI("critpath", "-nonsense", "run.jsonl")
	if code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "usage:") {
		t.Errorf("stderr lacks usage text:\n%s", stderr)
	}
}

func TestDiffExitCodes(t *testing.T) {
	a := writeLog(t, "a.jsonl", []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 10, Iter: 0},
		{Kind: telemetry.KindImageArrived, At: 20, Iter: 1},
	})
	b := writeLog(t, "b.jsonl", []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 10, Iter: 0},
		{Kind: telemetry.KindImageArrived, At: 25, Iter: 1},
	})
	if code, _, _ := runCLI("diff", a, a); code != 0 {
		t.Errorf("identical diff exit = %d, want 0", code)
	}
	code, stdout, _ := runCLI("diff", a, b)
	if code != 3 {
		t.Errorf("diverging diff exit = %d, want 3", code)
	}
	if !strings.Contains(stdout, "diverge") {
		t.Errorf("diff output does not mention divergence:\n%s", stdout)
	}
}

// critpathLog is a two-hop causal chain (server read → transfer → compose →
// transfer → arrival) sufficient for an end-to-end critpath run.
func critpathLog(t *testing.T) string {
	return writeLog(t, "run.jsonl", []telemetry.Event{
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 0, Host: 0, Aux: "server"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 2, Host: 1, Aux: "operator"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 3, Host: 2, Aux: "client"},
		{Kind: telemetry.KindDemandSent, At: 0, Node: 2, Host: 2, Peer: 1},
		{Kind: telemetry.KindSourceRead, At: 100, Node: 0, Host: 0, Bytes: 100, Dur: 50},
		{Kind: telemetry.KindDataServed, At: 120, Node: 0, Host: 0, Peer: 1, Bytes: 100, Wait: 20},
		{Kind: telemetry.KindTransferEnd, At: 220, Host: 0, Peer: 1, Bytes: 100, Dur: 90, Wait: 10, Startup: 30},
		{Kind: telemetry.KindComposeGated, At: 220, Node: 2, Host: 1, Peer: 0, Bytes: 100, Dur: 220},
		{Kind: telemetry.KindOperatorFired, At: 265, Node: 2, Host: 1, Dur: 40, Wait: 5},
		{Kind: telemetry.KindDataServed, At: 280, Node: 2, Host: 1, Peer: 2, Bytes: 100, Wait: 15},
		{Kind: telemetry.KindTransferEnd, At: 400, Host: 1, Peer: 2, Bytes: 100, Dur: 100, Wait: 20, Startup: 30},
		{Kind: telemetry.KindImageArrived, At: 400, Host: 2, Bytes: 100},
	})
}

func TestCritPathSubcommand(t *testing.T) {
	log := critpathLog(t)
	code, stdout, stderr := runCLI("critpath", "-v", log)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{
		"realized critical-path attribution (1 iterations",
		"top contributors:",
		"bottleneck",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestCritPathCSVExport(t *testing.T) {
	log := critpathLog(t)
	csv := filepath.Join(t.TempDir(), "attr.csv")
	if code, _, stderr := runCLI("critpath", "-csv", csv, log); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines, want 2:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "iter,arrival_s,latency_s,") {
		t.Errorf("csv header = %q", lines[0])
	}
}

// tenantLog duplicates critpathLog's causal chain under two tenant IDs, as
// a multi-tenant run's shared log would interleave them.
func tenantLog(t *testing.T) string {
	base := []telemetry.Event{
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 0, Host: 0, Aux: "server"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 2, Host: 1, Aux: "operator"},
		{Kind: telemetry.KindOperatorPlaced, At: 0, Node: 3, Host: 2, Aux: "client"},
		{Kind: telemetry.KindDemandSent, At: 0, Node: 2, Host: 2, Peer: 1},
		{Kind: telemetry.KindSourceRead, At: 100, Node: 0, Host: 0, Bytes: 100, Dur: 50},
		{Kind: telemetry.KindDataServed, At: 120, Node: 0, Host: 0, Peer: 1, Bytes: 100, Wait: 20},
		{Kind: telemetry.KindTransferEnd, At: 220, Host: 0, Peer: 1, Bytes: 100, Dur: 90, Wait: 10, Startup: 30},
		{Kind: telemetry.KindComposeGated, At: 220, Node: 2, Host: 1, Peer: 0, Bytes: 100, Dur: 220},
		{Kind: telemetry.KindOperatorFired, At: 265, Node: 2, Host: 1, Dur: 40, Wait: 5},
		{Kind: telemetry.KindDataServed, At: 280, Node: 2, Host: 1, Peer: 2, Bytes: 100, Wait: 15},
		{Kind: telemetry.KindTransferEnd, At: 400, Host: 1, Peer: 2, Bytes: 100, Dur: 100, Wait: 20, Startup: 30},
		{Kind: telemetry.KindImageArrived, At: 400, Host: 2, Bytes: 100},
	}
	var events []telemetry.Event
	for _, tid := range []int32{1, 2} {
		for _, ev := range base {
			ev.Tenant = tid
			events = append(events, ev)
		}
	}
	return writeLog(t, "multi.jsonl", events)
}

func TestCritPathTenantTable(t *testing.T) {
	log := tenantLog(t)
	code, stdout, stderr := runCLI("critpath", log)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{
		"per-tenant realized critical paths:",
		"t1    ",
		"t2    ",
		"p50-lat(s)",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestCritPathTenantFilter(t *testing.T) {
	log := tenantLog(t)
	code, stdout, stderr := runCLI("critpath", "-tenant", "2", log)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "tenant 2 sub-log") {
		t.Errorf("output lacks sub-log banner:\n%s", stdout)
	}
	if !strings.Contains(stdout, "attribution (1 iterations") {
		t.Errorf("filtered log should have exactly one iteration:\n%s", stdout)
	}
	if strings.Contains(stdout, "per-tenant realized critical paths:") {
		t.Errorf("-tenant output should not repeat the per-tenant table:\n%s", stdout)
	}
	// A tenant with no events in the log yields an empty sub-log.
	code, stdout, _ = runCLI("critpath", "-tenant", "9", log)
	if code != 0 || !strings.Contains(stdout, "no image-arrived events") {
		t.Errorf("missing tenant: exit = %d, output = %q", code, stdout)
	}
}

func TestPerfSubcommand(t *testing.T) {
	rep := &obs.Report{
		WallNs: 2_000_000_000,
		Subsystems: []obs.SubsystemShare{
			{Name: "sim", WallNs: 1_500_000_000, Share: 0.75},
			{Name: "netmodel", WallNs: 500_000_000, Share: 0.25},
		},
		Events: 1_234_567, EventsPerSec: 617_283.5,
		Transfers: 42, BytesMoved: 1 << 20,
	}
	path := filepath.Join(t.TempDir(), "perf.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	csvPath := filepath.Join(t.TempDir(), "perf.csv")
	code, stdout, stderr := runCLI("perf", "-csv", csvPath, path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{
		"host-process performance report",
		"1,234,567",
		"sim",
		"75.0%",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "section,name,value,share\n") {
		t.Errorf("csv header wrong:\n%s", data)
	}
	if !strings.Contains(string(data), "subsystem,sim,1500000000,") {
		t.Errorf("csv lacks sim share row:\n%s", data)
	}
}

func TestPerfBadInput(t *testing.T) {
	if code, _, _ := runCLI("perf"); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("perf", bad)
	if code != 1 {
		t.Errorf("malformed report: exit = %d, want 1", code)
	}
	if !strings.Contains(stderr, "perf report") {
		t.Errorf("stderr = %q", stderr)
	}
}

// writeAllocReport writes a small alloc-site report whose sites reference
// real budgeted functions in this repository, so the -src join against the
// repo root exercises the full verification path.
func writeAllocReport(t *testing.T) string {
	t.Helper()
	rep := &obs.AllocReport{
		Ops: 8, ProfileRate: 1,
		TotalAllocs: 1000, TotalBytes: 80_000,
		SampledAllocs: 980, SampledBytes: 79_000,
		Subsystems: []obs.AllocSubsystem{
			{Name: "sim", Allocs: 700, Bytes: 50_000, Share: 0.7},
			{Name: "monitor", Allocs: 300, Bytes: 30_000, Share: 0.3},
		},
		Sites: []obs.AllocSite{
			{Func: "wadc/internal/sim.(*Kernel).schedule", File: "internal/sim/kernel.go",
				Line: 210, Subsystem: "sim", Allocs: 700, Bytes: 50_000},
			{Func: "wadc/internal/monitor.(*System).Cache", File: "internal/monitor/monitor.go",
				Line: 396, Subsystem: "monitor", Allocs: 300, Bytes: 30_000},
		},
	}
	path := filepath.Join(t.TempDir(), "allocs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestAllocsSubcommand(t *testing.T) {
	path := writeAllocReport(t)
	csvPath := filepath.Join(t.TempDir(), "sites.csv")
	// -src ../.. is the repo root: the join collects the real
	// //lint:allocbudget annotations and verifies them against the report.
	code, stdout, stderr := runCLI("allocs", "-top", "1", "-csv", csvPath, "-src", filepath.Join("..", ".."), path)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{
		"allocation-site report",
		"98.0% attributed to 2 sites",
		"125.0 allocs/op",
		"sim                 700   70.0%",
		"wadc/internal/sim.(*Kernel).schedule (internal/sim/kernel.go:210)",
		"... 1 more sites",
		"budget verification:",
		"[confirmed  ] wadc/internal/sim.(*Kernel).schedule: 1 site(s) observed",
		"pooling candidates",
		"wadc/internal/monitor.(*System).Cache",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
	data, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("csv has %d lines, want header + 2 sites:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "rank,subsystem,func,file,line,") {
		t.Errorf("csv header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,sim,wadc/internal/sim.(*Kernel).schedule,") {
		t.Errorf("csv top site = %q", lines[1])
	}
}

func TestAllocsBadInput(t *testing.T) {
	if code, _, _ := runCLI("allocs"); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runCLI("allocs", bad); code != 1 {
		t.Errorf("malformed report: exit = %d, want 1", code)
	}
	// A -src tree without go.mod is a runtime error, not a silent skip: the
	// user asked for that tree specifically.
	good := writeAllocReport(t)
	code, _, stderr := runCLI("allocs", "-src", t.TempDir(), good)
	if code != 1 {
		t.Errorf("budget-less -src: exit = %d, want 1, stderr = %q", code, stderr)
	}
}

func TestCritPathEmptyLog(t *testing.T) {
	log := writeLog(t, "empty.jsonl", []telemetry.Event{
		{Kind: telemetry.KindDemandSent, At: 0, Node: 2},
	})
	code, stdout, _ := runCLI("critpath", log)
	if code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "no image-arrived events") {
		t.Errorf("output = %q", stdout)
	}
}

// estimatorLog is a small log with estimate-used and regime-detected events
// under two tenant IDs.
func estimatorLog(t *testing.T) string {
	const sec = int64(1_000_000_000)
	base := []telemetry.Event{
		{Kind: telemetry.KindEstimateUsed, At: 100 * sec, Node: 4, Host: 0, Peer: 1,
			Value: 1100, Bytes: 1000, Dur: 10 * sec, Wait: 30 * sec, Startup: 2 * sec,
			Seq: 1, Name: "global", Aux: "probe"},
		{Kind: telemetry.KindEstimateUsed, At: 200 * sec, Node: 4, Host: 0, Peer: 1,
			Value: 800, Bytes: 1000, Dur: 20 * sec, Wait: 20 * sec,
			Seq: 2, Name: "global", Aux: "fresh-cache"},
		{Kind: telemetry.KindRegimeDetected, At: 150 * sec, Node: 4, Host: 0, Peer: 1,
			Dur: 5 * sec, Value: 2000, Bytes: 1000, Seq: 1, Aux: "up"},
	}
	var events []telemetry.Event
	for _, tid := range []int32{1, 2} {
		for _, ev := range base {
			ev.Tenant = tid
			events = append(events, ev)
		}
	}
	return writeLog(t, "est.jsonl", events)
}

func TestEstimatorSubcommand(t *testing.T) {
	log := estimatorLog(t)
	code, stdout, stderr := runCLI("estimator", log)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	for _, want := range []string{
		"estimator accuracy (estimates consumed by placement decisions):",
		"uses=4 links=1",
		"per-algorithm consumption:",
		"regime changes: detections=2",
		"miss attribution",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("output lacks %q:\n%s", want, stdout)
		}
	}
}

func TestEstimatorCSVExport(t *testing.T) {
	log := estimatorLog(t)
	csv := filepath.Join(t.TempDir(), "est.csv")
	if code, _, stderr := runCLI("estimator", "-csv", csv, log); code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv has %d lines, want header + 1 link:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[0], "a,b,n,mean_err") || !strings.HasPrefix(lines[1], "0,1,4,") {
		t.Errorf("csv = %q", data)
	}
}

func TestEstimatorTenantFilter(t *testing.T) {
	log := estimatorLog(t)
	code, stdout, stderr := runCLI("estimator", "-tenant", "2", log)
	if code != 0 {
		t.Fatalf("exit = %d, stderr = %q", code, stderr)
	}
	if !strings.Contains(stdout, "tenant 2 sub-log") || !strings.Contains(stdout, "uses=2 links=1") {
		t.Errorf("filtered output:\n%s", stdout)
	}
}

func TestEstimatorEmptyLog(t *testing.T) {
	log := writeLog(t, "noest.jsonl", []telemetry.Event{
		{Kind: telemetry.KindImageArrived, At: 10, Iter: 0},
	})
	code, stdout, _ := runCLI("estimator", log)
	if code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
	if !strings.Contains(stdout, "no estimate-used events") {
		t.Errorf("output = %q", stdout)
	}
}
