package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/recovery"
)

// percentileRank is the highest percentile the benchmark reports; the gate
// requires at least minTail samples beyond it on every workload.
const (
	percentileRank = 99.9
	minTail        = 10
)

// pass is the outcome of one verification pass of a cell.
type pass struct {
	rd, wr   []int64            // exact latencies of the window's reads and writes, ns
	summary  map[string]float64 // window outcomes, compared with the timed repeats
	windowNs int64

	attempted, failed int64
	lostAcked, acked  int
	broken            string // the guarantee the model broke, if any

	verifyTime, recoverTime time.Duration
}

// openLoopDrainNs is how long an open-loop verification pass runs past the
// measurement window, so every arrival issued inside the window has the
// chance to complete.
const openLoopDrainNs = 1_000_000

// verifyCell runs one untimed pass of the cell with history tracking: it
// checks the history against the model's visibility guarantee, crashes
// every node at the end of the run, recovers from the NVM images
// (NewestVote) and audits the acknowledged writes. Latencies are the exact
// per-op latencies of the history, not histogram buckets. An open-loop cell
// runs openLoopDrainNs past the window first, so that an arrival still open
// after it counts as failed, not merely in flight.
func verifyCell(w workload, seed uint64) (*pass, error) {
	cfg := w.cfg(seed)
	cfg.TrackHistory = true
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	warm, end := c.Cfg.WarmupNs, c.Cfg.WarmupNs+c.Cfg.MeasureNs
	c.Start()
	c.Eng.Run(warm)
	c.BeginMeasurement()
	c.Eng.Run(end)
	c.StopMeasurement()
	if cfg.Arrivals != nil {
		c.Eng.Run(end + openLoopDrainNs)
	}

	v := &pass{}
	var lin *recovery.LinearReport
	var audit *recovery.Audit
	var res *cluster.Result
	v.verifyTime = inPhase("verify", func() {
		res = c.Collect(c.Cfg.MeasureNs, 0)
		lin = recovery.CheckLinearizable(res)
		recovery.Crash(c)
		start := time.Now()
		audit = recovery.RunAudit(res, recovery.Recover(c, recovery.NewestVote))
		v.recoverTime = time.Since(start)
	})

	// Window latencies: ops completed while measuring, exactly the samples
	// the cluster's histograms hold.
	var windowArrivals uint64
	inWindow := func(t int64) bool { return t > warm && t <= end }
	for _, r := range res.Reads {
		if inWindow(r.DoneAt) {
			v.rd = append(v.rd, r.DoneAt-r.IssueAt)
		}
		if inWindow(r.IssueAt) {
			windowArrivals++
		}
	}
	for _, r := range res.Writes {
		if inWindow(r.AckAt) {
			v.wr = append(v.wr, r.AckAt-r.IssueAt)
		}
		if inWindow(r.IssueAt) {
			windowArrivals++
		}
	}
	if uint64(len(v.rd)) != res.ReadHist.Count() || uint64(len(v.wr)) != res.WriteHist.Count() {
		return nil, fmt.Errorf("seed %d: history holds %d/%d window reads/writes, histograms %d/%d",
			seed, len(v.rd), len(v.wr), res.ReadHist.Count(), res.WriteHist.Count())
	}

	var unfinished int64
	if cfg.Arrivals != nil {
		unfinished = int64(res.Offered) - int64(windowArrivals)
		if unfinished < 0 {
			return nil, fmt.Errorf("seed %d: history holds %d window arrivals, cluster offered %d",
				seed, windowArrivals, res.Offered)
		}
	}
	// Strong visibility forbids every violation the checker knows; weak
	// visibility allows stale reads but never a read from the future.
	forbidden := int64(lin.FutureReadViolations)
	if cfg.Model.C == core.Linearizable {
		forbidden = int64(lin.Violations())
	}
	switch {
	case forbidden > 0:
		v.broken = fmt.Sprintf("seed %d: %s history is not allowed by the model: %s", seed, cfg.Model, lin)
	case audit.LostConfirmedDurable > 0:
		v.broken = fmt.Sprintf("seed %d: %s lost %d writes it had confirmed durable", seed, cfg.Model, audit.LostConfirmedDurable)
	}
	v.attempted = int64(len(res.Reads)+len(res.Writes)) + unfinished
	v.failed = forbidden + int64(audit.LostConfirmedDurable) + unfinished
	v.lostAcked, v.acked = audit.LostAcked, audit.AckedWrites
	v.summary = summaryOf(res)
	v.windowNs = res.Summary.WindowNs
	return v, nil
}

// summaryOf extracts the window outcomes the timed repeats must reproduce.
func summaryOf(res *cluster.Result) map[string]float64 {
	return map[string]float64{
		"summary.ops":        float64(res.Summary.Ops),
		"summary.mops":       res.Summary.Throughput / 1e6,
		"summary.read_p50":   float64(res.Summary.P50Read),
		"summary.read_p999":  float64(res.Summary.P999Read),
		"summary.write_p50":  float64(res.Summary.P50Write),
		"summary.write_p999": float64(res.Summary.P999Write),
		"summary.offered":    float64(res.Offered),
		"summary.completed":  float64(res.Completed),
	}
}

// subSeed returns the seed of a workload's i-th verification pass: the
// workload seed itself for i = 0 (the seed the timed repeats run), and a
// splitmix64-scrambled derivative after it, so passes of neighbouring
// workload seeds never share a cell.
func subSeed(seed uint64, i int) uint64 {
	if i == 0 {
		return seed
	}
	z := seed + uint64(i)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// verdict pools a workload's verification passes: the end-to-end sim
// metrics and the correctness gate.
type verdict struct {
	passes []*pass
	sim    map[string]float64 // end-to-end sim metrics plus recovery.*
	p50    map[string]float64 // medians, logged only (see README.md)

	attempted, failed         int64
	broken                    string
	readSamples, writeSamples int
}

// verifyAll runs the workload's passes, at most two at a time (each on the
// sequential engine), and pools them.
func verifyAll(w workload, seed uint64) (*verdict, error) {
	passes := make([]*pass, w.passes)
	errs := make([]error, w.passes)
	idx := make(chan int, w.passes) // sized to the number of sends
	for k := range passes {
		idx <- k
	}
	close(idx)
	var wg sync.WaitGroup
	for g := 0; g < min(2, runtime.GOMAXPROCS(0), w.passes); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range idx {
				passes[k], errs[k] = verifyCell(w, subSeed(seed, k))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	v := &verdict{passes: passes}
	var rd, wr []int64
	var ops, windowNs float64
	var lost, acked int
	for _, p := range passes {
		rd = append(rd, p.rd...)
		wr = append(wr, p.wr...)
		ops += p.summary["summary.ops"]
		windowNs += float64(p.windowNs)
		v.attempted += p.attempted
		v.failed += p.failed
		lost += p.lostAcked
		acked += p.acked
		if v.broken == "" {
			v.broken = p.broken
		}
	}
	v.readSamples, v.writeSamples = len(rd), len(wr)
	for _, n := range []int{len(rd), len(wr)} {
		if tail := n - rankIndex(n, percentileRank) - 1; tail < minTail {
			return nil, fmt.Errorf("only %d samples beyond p%g (need %d)", tail, percentileRank, minTail)
		}
	}
	v.sim = map[string]float64{
		"sim_mops":                 ops / windowNs * 1e3,
		"read_mean_us":             mean(rd) / 1e3,
		"read_p999_us":             pct(rd, percentileRank) / 1e3,
		"write_mean_us":            mean(wr) / 1e3,
		"write_p999_us":            pct(wr, percentileRank) / 1e3,
		"recovery.lost_acked_frac": ratio(float64(lost), float64(acked)),
		"recovery.failed_frac":     float64(v.failed) / float64(v.attempted),
	}
	v.p50 = map[string]float64{"read_p50_us": pct(rd, 50) / 1e3, "write_p50_us": pct(wr, 50) / 1e3}
	// Drop the latencies so they do not weigh on the timed repeats' GC.
	for _, p := range passes {
		p.rd, p.wr = nil, nil
	}
	return v, nil
}

// rankIndex is the index of the nearest-rank p-th percentile among n
// sorted samples.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(float64(n)*p/100)) - 1
	return min(max(i, 0), n-1)
}

// pct returns the exact nearest-rank p-th percentile of v (sorted in place).
func pct(v []int64, p float64) float64 {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return float64(v[rankIndex(len(v), p)])
}

func mean(v []int64) float64 {
	var sum float64
	for _, x := range v {
		sum += float64(x)
	}
	return sum / float64(len(v))
}
