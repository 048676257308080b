package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/cluster"
)

// phaseLabel is the pprof label key carrying the benchmark phase.
const phaseLabel = "phase"

// inPhase runs fn under the phase's pprof label and returns its duration.
func inPhase(name string, fn func()) time.Duration {
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels(phaseLabel, name), func(context.Context) { fn() })
	return time.Since(start)
}

// counters are the public layer counters read at one phase boundary.
type counters struct {
	res *cluster.Result // Protocol, Sched, Events, NodeOps, ShardOps, Routed

	poolJobs uint64
	poolBusy int64
	poolWait float64 // summed queueing delay
	poolSize int

	netMsgs  uint64
	netBytes uint64
	netDelay float64 // summed send-to-deliver delay

	nvmReads   uint64
	nvmWrites  uint64
	nvmWait    float64 // summed queueing delay
	nvmBusy    int64
	nvmMaxWait int64
	nvmMaxQ    int

	mem runtime.MemStats
}

// readCounters reads every layer's counters; res is the Collect result for
// this instant.
func readCounters(c *cluster.Cluster, res *cluster.Result) *counters {
	k := &counters{res: res}
	for _, w := range c.Workers {
		k.poolJobs += w.Jobs()
		k.poolBusy += w.BusyTime()
		k.poolWait += sumOf(w.MeanWait(), w.Jobs())
		k.poolSize += w.Size()
	}
	k.netMsgs = c.Net.Messages()
	k.netBytes = c.Net.Bytes()
	k.netDelay = sumOf(c.Net.MeanDelay(), k.netMsgs)
	for _, d := range c.Devices {
		k.nvmReads += d.Reads()
		k.nvmWrites += d.Writes()
		k.nvmWait += sumOf(d.MeanWait(), d.Reads()+d.Writes())
		k.nvmBusy += d.BusyTime()
		k.nvmMaxWait = max(k.nvmMaxWait, d.MaxWait())
		k.nvmMaxQ = max(k.nvmMaxQ, d.MaxOutstanding())
	}
	runtime.ReadMemStats(&k.mem)
	return k
}

// buildCell builds the cell after a full collection, so no build pays for
// the garbage of the one before, and times the build as the setup phase.
func buildCell(cfg cluster.Config) (c *cluster.Cluster, d time.Duration, err error) {
	runtime.GC()
	d = inPhase("setup", func() { c, err = cluster.New(cfg) })
	return c, d, err
}

// The calibration loop: a fixed floating-point sum, timed after every build.
// A build's host time is dominated by the same kind of work (the zipfian
// generators' zeta sums) and slows by nearly the same factor when the host
// enters a slow phase (README.md, "Host time"), so a build's time divided by
// the loop's time barely moves with the host. calRefSeconds is the loop's
// time in the fast phase of the 2-vCPU Xeon VM the README's figures come
// from: setup_s is a build's time on that host at that speed.
const (
	calIters      = 40_000
	calRefSeconds = 0.002
)

var calSink float64

// calibrate times one pass of the calibration loop.
func calibrate() time.Duration {
	start := time.Now()
	s := 0.0
	for i := 1; i <= calIters; i++ {
		s += math.Pow(float64(i), -0.99)
	}
	calSink += s
	return time.Since(start)
}

// sumOf recovers the integer nanosecond sum behind a layer's mean over n
// events, so that differencing two boundaries leaves no rounding residue.
func sumOf(mean float64, n uint64) float64 {
	return math.Round(mean * float64(n))
}

// sliceNs is the simulated length of one timed slice of a repeat.
const sliceNs = 50_000

// cellRun is one timed repeat of a workload cell.
type cellRun struct {
	spans map[string]time.Duration // setup, warmup, measure, collect
	// slices splits the host time of Start -> Run -> Collect into the
	// calls before and after each boundary and one Run per sliceNs of
	// simulated time. The slices of every repeat of a cell line up.
	slices []time.Duration
	res    *cluster.Result
	// sim holds the repeat's deterministic per-layer metrics; host its
	// host-time ones.
	sim, host map[string]float64
	heapMB    float64
	profile   []byte // CPU profile of the measure phase (traced repeats)
}

// runCell builds one cell from cfg and drives it from outside: Start, Run
// to the warmup boundary, BeginMeasurement, Run to the end,
// StopMeasurement, Collect. Counters are read at both boundaries so every
// per-op ratio covers the measurement window only. A traced repeat records
// a CPU profile of the measure phase.
func runCell(cfg cluster.Config, traced bool) (*cellRun, error) {
	r := &cellRun{spans: map[string]time.Duration{}}
	c, setup, err := buildCell(cfg)
	r.spans["setup"] = setup
	if err != nil {
		return nil, err
	}
	if c.Eng == nil {
		return nil, fmt.Errorf("cell %s is not on the sequential engine", cfg.Model)
	}
	warm, end := c.Cfg.WarmupNs, c.Cfg.WarmupNs+c.Cfg.MeasureNs
	r.spans["warmup"] = inPhase("warmup", func() {
		r.timed(c.Start)
		r.runSliced(c, warm)
	})
	before := readCounters(c, c.Collect(c.Cfg.MeasureNs, 0))

	var prof bytes.Buffer
	if traced {
		// Started outside the phase label so the profiler's own writer
		// goroutine stays unlabelled and out of the layer split.
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	r.spans["measure"] = inPhase("measure", func() {
		r.timed(c.BeginMeasurement)
		r.runSliced(c, end)
		r.timed(c.StopMeasurement)
	})
	if traced {
		pprof.StopCPUProfile()
		r.profile = prof.Bytes()
	}
	r.spans["collect"] = inPhase("collect", func() {
		r.timed(func() { r.res = c.Collect(c.Cfg.MeasureNs, r.spans["warmup"]+r.spans["measure"]) })
	})
	after := readCounters(c, r.res)
	if r.res.Summary.Ops == 0 {
		return nil, fmt.Errorf("cell %s completed no ops in the window", cfg.Model)
	}
	r.sim = windowMetrics(c, before, after)
	r.host = hostMetrics(r, before, after)

	// The cluster's footprint: the live heap with the cluster reachable,
	// less the live heap once it is not, so the benchmark's own data (the
	// verification passes' latencies, earlier repeats) does not count.
	held := liveHeap()
	runtime.KeepAlive(c)
	c = nil
	r.heapMB = (float64(held) - float64(liveHeap())) / (1 << 20)
	return r, nil
}

// timed runs fn as one slice of the repeat.
func (r *cellRun) timed(fn func()) {
	start := time.Now()
	fn()
	r.slices = append(r.slices, time.Since(start))
}

// runSliced runs the engine to simulated time to, one slice per sliceNs.
func (r *cellRun) runSliced(c *cluster.Cluster, to int64) {
	for t := c.Eng.Now(); t < to; {
		t = min(t+sliceNs, to)
		r.timed(func() { c.Eng.Run(t) })
	}
}

// fastHostNs is the host time of Start -> Run -> Collect at the host's fast
// phase: the lower decile of each slice over the repeats, summed. The host
// runs fast and slow phases from a tenth of a second to tens of seconds
// long, so a whole repeat (about a second) rarely runs fast throughout,
// but each slice (milliseconds) does in some repeats.
func fastHostNs(runs []*cellRun) float64 {
	var sum float64
	for i := range runs[0].slices {
		sum += quantileBy(runs, hostQuantile, func(r *cellRun) float64 { return float64(r.slices[i]) })
	}
	return sum
}

// windowMetrics derives the deterministic per-layer metrics of the
// measurement window from the counters at its two boundaries.
func windowMetrics(c *cluster.Cluster, b, a *counters) map[string]float64 {
	res := a.res
	ops := float64(res.Summary.Ops)
	window := float64(c.Cfg.MeasureNs)
	p := c.Cfg.Params
	pb, pa := &b.res.Protocol, &a.res.Protocol
	reads := float64(pa.Reads - pb.Reads)
	readStalls := float64(pa.ReadStalls - pb.ReadStalls)
	writeStalls := float64(pa.WriteStalls - pb.WriteStalls)
	nvmOps := float64(a.nvmReads + a.nvmWrites - b.nvmReads - b.nvmWrites)

	m := map[string]float64{
		"sim.events_per_op":    float64(res.Events-b.res.Events) / ops,
		"sim.max_pending":      float64(res.Sched.MaxPending),
		"sim.pool_wait_ns":     ratio(a.poolWait-b.poolWait, float64(a.poolJobs-b.poolJobs)),
		"sim.pool_busy_frac":   float64(a.poolBusy-b.poolBusy) / (window * float64(a.poolSize)),
		"sim.pool_jobs_per_op": float64(a.poolJobs-b.poolJobs) / ops,

		"simnet.msgs_per_op":    float64(a.netMsgs-b.netMsgs) / ops,
		"simnet.bytes_per_op":   float64(a.netBytes-b.netBytes) / ops,
		"simnet.mean_delay_ns":  ratio(a.netDelay-b.netDelay, float64(a.netMsgs-b.netMsgs)),
		"nvm.writes_per_op":     float64(a.nvmWrites-b.nvmWrites) / ops,
		"nvm.reads_per_op":      float64(a.nvmReads-b.nvmReads) / ops,
		"nvm.mean_wait_ns":      ratio(a.nvmWait-b.nvmWait, nvmOps),
		"nvm.max_wait_ns":       float64(a.nvmMaxWait),
		"nvm.max_queue":         float64(a.nvmMaxQ),
		"nvm.busy_frac":         float64(a.nvmBusy-b.nvmBusy) / (window * float64(len(c.Devices)*p.NVMChannels*p.NVMBanks)),
		"cluster.routed_frac":   float64(res.Routed-b.res.Routed) / ops,
		"cluster.inflight_peak": float64(res.InflightPeak),
		"cluster.reads":         float64(res.ReadHist.Count()),
		"cluster.writes":        float64(res.WriteHist.Count()),

		"protocol.read_stall_frac":       ratio(readStalls, reads),
		"protocol.read_stall_ns":         ratio(float64(pa.ReadStallTime-pb.ReadStallTime), readStalls),
		"protocol.write_stall_frac":      ratio(writeStalls, float64(pa.Writes-pb.Writes)),
		"protocol.write_stall_ns":        ratio(float64(pa.WriteStallTime-pb.WriteStallTime), writeStalls),
		"protocol.persist_conflict_frac": ratio(float64(pa.PersistConflictReads-pb.PersistConflictReads), reads),
	}
	// The window's simulated outcomes, so repeats are compared on them too
	// (the end-to-end sim metrics come from the verification pass).
	for k, v := range summaryOf(res) {
		m[k] = v
	}
	nodeOps := deltas(a.res.NodeOps, b.res.NodeOps)
	shardOps := deltas(a.res.ShardOps, b.res.ShardOps)
	m["cluster.node_imbalance"] = imbalance(nodeOps)
	m["cluster.group_imbalance"] = 0
	if len(shardOps) > 0 {
		hot := 0
		for s, n := range shardOps {
			if n > shardOps[hot] {
				hot = s
			}
		}
		rf := len(nodeOps) / len(shardOps)
		m["cluster.group_imbalance"] = imbalance(nodeOps[hot*rf : hot*rf+rf])
	}
	return m
}

// hostMetrics derives the repeat's host-time metrics.
func hostMetrics(r *cellRun, b, a *counters) map[string]float64 {
	ops := float64(r.res.Summary.Ops)
	return map[string]float64{
		"sim.host_ns_per_event":      float64(r.spans["measure"].Nanoseconds()) / float64(r.res.Events-b.res.Events),
		"runtime.allocs_per_op":      float64(a.mem.Mallocs-b.mem.Mallocs) / ops,
		"runtime.alloc_bytes_per_op": float64(a.mem.TotalAlloc-b.mem.TotalAlloc) / ops,
		"runtime.gc_cycles":          float64(a.mem.NumGC - b.mem.NumGC),
	}
}

func deltas(a, b []uint64) []uint64 {
	if len(a) != len(b) {
		return nil
	}
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// imbalance returns max/mean of v (1 = balanced), or 0 for no work.
func imbalance(v []uint64) float64 {
	var total, top uint64
	for _, n := range v {
		total += n
		top = max(top, n)
	}
	if total == 0 {
		return 0
	}
	return float64(top) * float64(len(v)) / float64(total)
}

// liveHeap returns the bytes of heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
