package main

import (
	"runtime"
	"time"

	"wadc/internal/monitor"
	"wadc/internal/netmodel"
	"wadc/internal/placement"
	"wadc/internal/plan"
	"wadc/internal/sim"
	"wadc/internal/trace"
)

// The replays time one layer's public entry point in isolation, shaped by
// the workload: its host count, its link traces, its tree size and its image
// size. Each replay is calibrated to batches of at least batchTarget and
// reports the median ns/op of replayBatches batches, one span per batch.
const (
	batchTarget   = 20 * time.Millisecond
	replayBatches = 5
)

// timeOp calibrates op(n) and returns the median nanoseconds per operation
// over replayBatches batches, and the batch size it settled on.
func timeOp(tr *tracer, parent int, name string, op func(n int)) (nsPerOp float64, n int) {
	n = 1
	for {
		t0 := time.Now()
		op(n)
		if time.Since(t0) >= batchTarget || n >= 1<<24 {
			break
		}
		n *= 2
	}
	samples := make([]float64, replayBatches)
	for i := range samples {
		s := tr.begin(name, parent)
		t0 := time.Now()
		op(n)
		samples[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
		tr.end(s)
	}
	return median(samples), n
}

// allocPerOp returns the heap bytes op(n) allocates per operation.
func allocPerOp(op func(n int), n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	op(n)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// replayResult holds the per-layer replay timings of one workload.
type replayResult struct {
	eventNs, switchNs       float64
	transferDurationNs      float64
	sendNs                  float64
	beforeSendNs, afterNs   float64
	bytesPerSend            float64
	evaluateNs, oneShotNs   float64
	cacheEntries, cacheHost int
}

// runReplays times every layer replay for the workload's inputs.
func runReplays(in *inputs, tr *tracer) replayResult {
	var r replayResult
	root := tr.begin("replay", 0)
	defer tr.end(root)

	r.eventNs, _ = timeOp(tr, root, "replay.sim.After", func(n int) {
		k := sim.NewKernel()
		left := n
		var tick func()
		tick = func() {
			if left--; left > 0 {
				k.After(time.Millisecond, tick)
			}
		}
		k.After(time.Millisecond, tick)
		_ = k.Run()
	})
	r.switchNs, _ = timeOp(tr, root, "replay.sim.Hold", func(n int) {
		k := sim.NewKernel()
		k.Spawn("holder", func(p *sim.Proc) {
			for i := 0; i < n; i++ {
				p.Hold(time.Millisecond)
			}
		})
		_ = k.Run()
	})
	r.transferDurationNs, _ = timeOp(tr, root, "replay.trace.TransferDuration", func(n int) {
		for i := 0; i < n; i++ {
			start := sim.Time(i%600) * sim.Second
			_ = in.links[i%len(in.links)].TransferDuration(start, in.meanBytes)
		}
	})
	r.sendNs, _ = timeOp(tr, root, "replay.netmodel.Send", func(n int) { replaySend(in, n) })

	mon := filledMonitor(in)
	r.cacheHost = in.hosts
	r.cacheEntries = mon.Cache(0).Len()
	msgs := make([]*netmodel.Message, in.hosts)
	for h := range msgs {
		msgs[h] = &netmodel.Message{
			Src: netmodel.HostID(h), Dst: netmodel.HostID((h + 1) % in.hosts),
			Port: "replay", Size: in.meanBytes,
		}
	}
	beforeSend := func(n int) {
		for i := 0; i < n; i++ {
			mon.BeforeSend(msgs[i%len(msgs)])
		}
	}
	var batch int
	r.beforeSendNs, batch = timeOp(tr, root, "replay.monitor.BeforeSend", beforeSend)
	r.bytesPerSend = allocPerOp(beforeSend, batch)
	r.afterNs, _ = timeOp(tr, root, "replay.monitor.AfterDeliver", func(n int) {
		for i := 0; i < n; i++ {
			mon.AfterDeliver(msgs[i%len(msgs)], time.Second)
		}
	})

	initial, hosts, model, bw := placementProblem(in)
	r.evaluateNs, _ = timeOp(tr, root, "replay.plan.Evaluate", func(n int) {
		for i := 0; i < n; i++ {
			_ = model.Evaluate(initial, bw)
		}
	})
	r.oneShotNs, _ = timeOp(tr, root, "replay.placement.OneShotOptimize", func(n int) {
		for i := 0; i < n; i++ {
			_ = placement.OneShotOptimize(initial, hosts, model, bw)
		}
	})
	return r
}

// bareNetwork builds a network of the workload's hosts whose links carry the
// workload's traces, in (x < y) pair order.
func bareNetwork(in *inputs) (*sim.Kernel, *netmodel.Network) {
	k := sim.NewKernel()
	net := netmodel.NewNetwork(k)
	for h := 0; h < in.hosts; h++ {
		net.AddHost("h")
	}
	i := 0
	for x := 0; x < in.hosts; x++ {
		for y := x + 1; y < in.hosts; y++ {
			net.SetLink(netmodel.HostID(x), netmodel.HostID(y), in.links[i])
			i++
		}
	}
	return k, net
}

// replaySend performs n image-sized Network.Send calls round-robin over the
// links of a bare network with no observer, draining each delivery.
func replaySend(in *inputs, n int) {
	k, net := bareNetwork(in)
	k.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			a := i % in.hosts
			b := (a + 1 + (i/in.hosts)%(in.hosts-1)) % in.hosts
			msg := &netmodel.Message{
				Src: netmodel.HostID(a), Dst: netmodel.HostID(b),
				Port: "replay", Size: in.meanBytes, Prio: sim.PriorityData,
			}
			net.Send(p, msg)
			net.Host(msg.Dst).Port("replay").Drain()
		}
	})
	_ = k.Run()
}

// filledMonitor returns a monitoring system over a bare network of the
// workload's hosts in which every host's cache holds every pair: each host
// probes every link once, in simulated time, so entries carry distinct
// measurement times as they do in a run (36 pairs at 9 hosts, 528 at 33).
func filledMonitor(in *inputs) *monitor.System {
	k, net := bareNetwork(in)
	mon := monitor.NewSystem(net, monitor.DefaultConfig())
	k.Spawn("filler", func(p *sim.Proc) {
		for v := 0; v < in.hosts; v++ {
			for a := 0; a < in.hosts; a++ {
				for b := a + 1; b < in.hosts; b++ {
					mon.Probe(p, netmodel.HostID(v), netmodel.HostID(a), netmodel.HostID(b))
				}
			}
		}
	})
	_ = k.Run()
	return mon
}

// placementProblem is the workload's one-shot optimisation problem: its tree
// on the default host assignment, all of its hosts as candidates, and a
// snapshot of its link traces at t=0.
func placementProblem(in *inputs) (*plan.Placement, []netmodel.HostID, plan.CostModel, plan.BandwidthFn) {
	tree := plan.CompleteBinary(in.treeLeaves)
	sh, ch := plan.DefaultHostAssignment(in.treeLeaves)
	initial := plan.NewPlacement(tree, sh, ch)
	hosts := make([]netmodel.HostID, in.hosts)
	bwm := make([][]trace.Bandwidth, in.hosts)
	for h := range hosts {
		hosts[h] = netmodel.HostID(h)
		bwm[h] = make([]trace.Bandwidth, in.hosts)
	}
	i := 0
	for x := 0; x < in.hosts; x++ {
		for y := x + 1; y < in.hosts; y++ {
			bwm[x][y] = in.links[i].At(0)
			bwm[y][x] = bwm[x][y]
			i++
		}
	}
	bw := func(a, b netmodel.HostID) trace.Bandwidth { return bwm[a][b] }
	return initial, hosts, plan.DefaultCostModel(in.meanBytes), bw
}
