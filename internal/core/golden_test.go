package core

import (
	"fmt"
	"hash/fnv"
	"testing"
	"time"

	"wadc/internal/faults"
	"wadc/internal/netmodel"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
	"wadc/internal/tenant"
	"wadc/internal/trace"
)

// goldenLinks gives every link its own synthetic two-hour trace, seeded by
// the pair, so placement decisions depend on what the monitor measured and
// piggybacked rather than on one constant bandwidth.
func goldenLinks(seed int64) LinkFn {
	p := trace.DefaultGenParams(96 * 1024)
	p.Duration = 2 * sim.Hour
	return func(a, b netmodel.HostID) *trace.Trace {
		return trace.Generate("golden", seed*4099+int64(a)*67+int64(b), p)
	}
}

// goldenRunDigest folds a run's kernel event log, its model-level event
// log with every consumed estimate's provenance and age, and its headline
// outcome into one hash.
func goldenRunDigest(t *testing.T, cfg RunConfig) string {
	t.Helper()
	rec := telemetry.NewRecorder()
	cfg.Telemetry = telemetry.ModelOnly(rec)
	cfg.TrackEstimates = true
	res, logHash, lines := traceDigest(t, cfg)
	h := fnv.New64a()
	if err := telemetry.WriteJSONL(h, rec.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	fmt.Fprintf(h, "%x %d %v %v %d %d %d %d %d %v",
		logHash, lines, res.Arrivals, res.Completion, res.Moves, res.Switches,
		res.Probes, res.PassiveMeasurements, res.NetworkTransfers, res.FinalPlacement)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestGoldenEventLogs pins the simulated behaviour, not just run-vs-run
// determinism: each case's digest was recorded once and must not move under
// a change that claims byte-identical outcomes. The 16-server cases have 17
// hosts and 136 host pairs, more than the 64 entries the piggyback budget
// carries, so they exercise truncating the piggybacked measurement list.
func TestGoldenEventLogs(t *testing.T) {
	// Regenerate a digest only in a change that means to alter simulated
	// behaviour, and say so in that change.
	golden := map[string]string{
		"download-all/fault-free/4":  "8955519d78617738",
		"download-all/faulty/4":      "527962df0ba5ba65",
		"download-all/fault-free/16": "d284b52aa5d80d1c",
		"download-all/faulty/16":     "485bc55464046cc7",
		"one-shot/fault-free/4":      "017b4688b510ba77",
		"one-shot/faulty/4":          "6c2a8c909240cbf9",
		"one-shot/fault-free/16":     "276f302a2a441a83",
		"one-shot/faulty/16":         "26feda1cb5b3d94d",
		"global/fault-free/4":        "c31b1d510354cec7",
		"global/faulty/4":            "f11dd23c498ac44d",
		"global/fault-free/16":       "8f8baa33b1102265",
		"global/faulty/16":           "ce42d767c1fb5c2f",
		"local/fault-free/4":         "88a43cbb67657f17",
		"local/faulty/4":             "8a8fb0f643fd7e6a",
		"local/fault-free/16":        "505dd9bfe3b931a0",
		"local/faulty/16":            "c369d0a6c7e7b155",
		"multi/10":                   "8269dabee309835b",
	}
	got := map[string]string{}
	for _, servers := range []int{4, 16} {
		for name, mk := range chaosPolicies() {
			for _, mode := range []struct {
				label string
				fc    faults.Config
			}{
				{"fault-free", faults.Config{}},
				{"faulty", multiFaults()},
			} {
				key := fmt.Sprintf("%s/%s/%d", name, mode.label, servers)
				cfg := RunConfig{
					Seed: 29, NumServers: servers, Shape: CompleteBinaryTree,
					Links: goldenLinks(29), Policy: mk(),
					Workload: smallWorkload(40),
					Faults:   mode.fc,
				}
				if servers == 16 {
					// Entries stay fresh for ten minutes, so ones deep in a
					// truncated piggyback list still serve estimates.
					cfg.Monitor.TThres = 10 * time.Minute
				}
				got[key] = goldenRunDigest(t, cfg)
			}
		}
	}
	got["multi/10"] = goldenMultiDigest(t)
	if len(got) != len(golden) {
		t.Fatalf("ran %d cases, have %d golden digests", len(got), len(golden))
	}
	for k, want := range golden {
		if got[k] != want {
			t.Errorf("%s: digest %s, want %s", k, got[k], want)
		}
	}
}

// goldenMultiDigest runs ten tenants of the standard policy mix on one
// shared network and folds the kernel and model-level event logs and every
// tenant's outcome into one hash.
func goldenMultiDigest(t *testing.T) string {
	t.Helper()
	h := fnv.New64a()
	log := &kernelLog{w: h}
	rec := telemetry.NewRecorder()
	cfg := MultiConfig{
		Telemetry:      telemetry.Multi(telemetry.ModelOnly(rec), log),
		TrackEstimates: true,
		Seed:           31, NumServers: 6,
		Links: goldenLinks(31),
		Tenants: tenant.Population(tenant.PopulationConfig{
			N: 10, ArrivalRate: 0.5, Seed: 31, NumServers: 3, Iterations: 4,
		}),
		Workload: smallWorkload(4),
		Period:   2 * time.Minute,
	}
	res, err := RunMulti(cfg)
	if err != nil {
		t.Fatalf("RunMulti: %v", err)
	}
	if err := telemetry.WriteJSONL(h, rec.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	fmt.Fprintf(h, "%d %d %d", log.lines, res.Completed, res.Aborted)
	for _, tr := range res.Tenants {
		fmt.Fprintf(h, " %d %t %t %v %v %d %v %d %d %v", tr.Spec.ID, tr.Completed, tr.Aborted,
			tr.ArrivedAt, tr.DepartedAt, tr.Delivered, tr.Result.Arrivals,
			tr.Result.Moves, tr.Result.Switches, tr.FinalPlacement)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
