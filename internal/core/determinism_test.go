package core

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"testing"
	"time"

	"wadc/internal/faults"
	"wadc/internal/sim"
	"wadc/internal/telemetry"
)

// kernelLog is a telemetry sink that formats the six kernel event kinds
// into one text line each and writes them to w, ignoring model-level
// events. Hashing its output compares two runs event-for-event without
// holding either log in memory.
type kernelLog struct {
	w     io.Writer
	lines int
}

func (l *kernelLog) Emit(ev telemetry.Event) {
	at := sim.Time(ev.At)
	switch ev.Kind {
	case telemetry.KindProcHold:
		fmt.Fprintf(l.w, "%v %s hold %v\n", at, ev.Name, time.Duration(ev.Dur))
	case telemetry.KindProcKilled:
		fmt.Fprintf(l.w, "%v kill %s\n", at, ev.Name)
	case telemetry.KindMailboxSend:
		fmt.Fprintf(l.w, "%v mailbox %s send prio=%v\n", at, ev.Name, sim.Priority(ev.Prio))
	case telemetry.KindMailboxRecv:
		fmt.Fprintf(l.w, "%v mailbox %s recv prio=%v\n", at, ev.Name, sim.Priority(ev.Prio))
	case telemetry.KindResourceWait:
		fmt.Fprintf(l.w, "%v resource %s wait %s prio=%v\n", at, ev.Name, ev.Aux, sim.Priority(ev.Prio))
	case telemetry.KindResourceGrant:
		fmt.Fprintf(l.w, "%v resource %s grant %s\n", at, ev.Name, ev.Aux)
	default:
		return
	}
	l.lines++
}

// traceDigest runs cfg with a kernelLog next to its telemetry sink and
// returns the hash and line count of the kernel event log.
func traceDigest(t *testing.T, cfg RunConfig) (RunResult, uint64, int) {
	t.Helper()
	h := fnv.New64a()
	log := &kernelLog{w: h}
	cfg.Telemetry = telemetry.Multi(cfg.Telemetry, log)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, h.Sum64(), log.lines
}

// TestDeterministicReplay: the same seed and fault configuration must produce
// a bit-identical kernel event log and an identical Result — with and without
// faults, for every algorithm.
func TestDeterministicReplay(t *testing.T) {
	faulty := faults.Config{
		Crashes:      2,
		MeanDowntime: 90 * time.Second,
		DropProb:     0.05,
		DupProb:      0.02,
		LinkOutages:  1,
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
					Seed: 21, NumServers: 4, Shape: CompleteBinaryTree,
					Links: constLinks(64 * 1024), Policy: mk(),
					Workload: smallWorkload(8),
					Faults:   mode.fc,
				}
				a, hashA, linesA := traceDigest(t, cfg)
				cfg.Policy = mk() // policies carry state; fresh instance per run
				b, hashB, linesB := traceDigest(t, cfg)

				if linesA == 0 {
					t.Fatal("kernel log captured no events")
				}
				if hashA != hashB || linesA != linesB {
					t.Errorf("event logs diverge: %d lines/%#x vs %d lines/%#x",
						linesA, hashA, linesB, hashB)
				}
				if !reflect.DeepEqual(a.Result, b.Result) {
					t.Errorf("results diverge:\n  a=%+v\n  b=%+v", a.Result, b.Result)
				}
				if a.CrashesFired != b.CrashesFired ||
					a.MessagesDropped != b.MessagesDropped ||
					a.MessagesDuplicated != b.MessagesDuplicated ||
					a.TransfersCut != b.TransfersCut {
					t.Errorf("fault counters diverge: a=(%d %d %d %d) b=(%d %d %d %d)",
						a.CrashesFired, a.MessagesDropped, a.MessagesDuplicated, a.TransfersCut,
						b.CrashesFired, b.MessagesDropped, b.MessagesDuplicated, b.TransfersCut)
				}
				if mode.label == "faulty" && !reflect.DeepEqual(a.FaultPlan, b.FaultPlan) {
					t.Error("generated fault plans diverge")
				}
			})
		}
	}
}
