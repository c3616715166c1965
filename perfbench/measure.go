package main

import (
	"runtime"
	"syscall"
	"time"

	"wadc/internal/obs"
	"wadc/internal/telemetry"
)

// pass is one run of every call of a workload, in order, on one goroutine.
type pass struct {
	wall    time.Duration
	cpu     time.Duration
	alloc   uint64    // heap bytes allocated during the pass
	callMs  []float64 // host wall time of each call
	callCPU []float64 // user+sys CPU seconds of each call
	outs    []outcome
	counts  counts
	regions map[string]time.Duration // region clock, traced passes only
}

// cpuTime is the process's user plus system CPU time, GC workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024 // Linux reports kilobytes
}

// runPass runs every call once. A traced pass attaches a fresh obs.Recorder
// to each call and records one span per call; an untraced pass does neither.
func runPass(in *inputs, traced bool, tr *tracer) pass {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	allocBefore := ms.TotalAlloc
	p := pass{
		callMs:  make([]float64, len(in.calls)),
		callCPU: make([]float64, len(in.calls)),
		outs:    make([]outcome, len(in.calls)),
	}
	if traced {
		p.regions = make(map[string]time.Duration)
	}
	cpu0, wall0 := cpuTime(), time.Now()
	for i, c := range in.calls {
		var rec *obs.Recorder
		var s int
		if traced {
			s = tr.begin(in.entry, 0)
			rec = obs.NewRecorder()
		}
		c0, t0 := cpuTime(), time.Now()
		o := c.run(rec, nil)
		p.callMs[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		p.callCPU[i] = (cpuTime() - c0).Seconds()
		if traced {
			tr.end(s)
		}
		p.outs[i] = o
		p.counts.add(o.counts)
		if o.perf != nil {
			for _, sub := range o.perf.Subsystems {
				p.regions[sub.Name] += time.Duration(sub.WallNs)
			}
		}
	}
	p.wall, p.cpu = time.Since(wall0), cpuTime()-cpu0
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - allocBefore
	return p
}

// monitorSink counts the monitor's activity from the telemetry stream, for
// core.RunMulti, whose result does not expose the shared monitor. Every
// monitor estimate a placement decision consumes is a decision-bandwidth
// event, and every cache miss issues exactly one probe.
type monitorSink struct {
	probes, passive, estimates int64
}

func (s *monitorSink) Emit(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindProbeIssued:
		s.probes++
	case telemetry.KindPassiveMeasured:
		s.passive++
	case telemetry.KindDecisionBandwidth:
		if ev.Host != ev.Peer {
			s.estimates++
		}
	}
}

// hitRate is the share of remote estimates served from cache.
func (s *monitorSink) hitRate() float64 {
	if s.estimates == 0 {
		return 0
	}
	return 1 - float64(s.probes)/float64(s.estimates)
}
