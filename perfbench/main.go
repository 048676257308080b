// Command perfbench is the repository's benchmark: it runs one reference
// workload of the simulator on the sequential engine, measures the
// simulator's host speed and the modeled system's performance, checks that
// the model kept its guarantees and that the simulation repeated exactly,
// and prints every metric by name with its unit. See README.md.
//
//	perfbench --workload paper-lin [--seed 1] [--seconds 15] [--trace 0|1] [--seed2 N]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are the
// end-to-end ones; with --trace 1 they are the per-layer ones, taken from a
// run whose repeats alternate between untraced and CPU-profiled.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Repeat counts. Every run makes at least minRepeats timed repeats (and as
// many traced ones under --trace 1) so the determinism check always has a
// pair to compare. Before each repeat it builds the cell setupsPerRepeat
// more times, each build followed by one pass of the calibration loop:
// setup_s is the median build time in units of the loop, scaled to
// seconds by calRefSeconds.
const (
	minRepeats      = 3
	setupsPerRepeat = 10
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Uint64("seed", 1, "workload seed")
	seed2 := fs.Uint64("seed2", 0, "if set, also verify this held-back seed and check it repeats exactly")
	seconds := fs.Int("seconds", 15, "host seconds of timed repeats")
	trace := fs.Int("trace", 0, "1 = report the per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	switch {
	case err != nil:
	case fs.NArg() > 0:
		err = fmt.Errorf("unexpected arguments %v", fs.Args())
	case *seconds < 1:
		err = fmt.Errorf("--seconds must be >= 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}

	fmt.Fprintf(stderr, "perfbench: workload %s seed %d, %d s, trace %d, GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *trace, runtime.GOMAXPROCS(0))
	rep, err := bench(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stderr)
	if err == nil && *seed2 != 0 {
		err = confirm(w, *seed2, rep, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rep.Correct {
		return 1
	}
	return 0
}

// bench measures one workload: the verification pass (correctness gate and
// end-to-end sim metrics), the setup_s builds, then timed repeats until the
// budget is spent.
func bench(w workload, seed uint64, budget time.Duration, traced bool, log io.Writer) (*report, error) {
	ver, err := verifyAll(w, seed)
	if err != nil {
		return nil, fmt.Errorf("verification pass: %w", err)
	}
	fmt.Fprintf(log, "verify: %d passes, %d ops attempted, %d failed; %d/%d window read/write samples, p50 read %.3f us, write %.3f us\n",
		len(ver.passes), ver.attempted, ver.failed, ver.readSamples, ver.writeSamples, ver.p50["read_p50_us"], ver.p50["write_p50_us"])
	if ver.broken != "" {
		fmt.Fprintf(log, "verify: GUARANTEE BROKEN: %s\n", ver.broken)
	}

	var plain, prof []*cellRun
	var builds, cals []float64
	start := time.Now()
	for i := 0; ; i++ {
		for k := 0; k < setupsPerRepeat; k++ {
			_, d, err := buildCell(w.cfg(seed))
			if err != nil {
				return nil, err
			}
			builds = append(builds, d.Seconds())
			cals = append(cals, calibrate().Seconds())
		}
		tr := traced && i%2 == 1
		r, err := runCell(w.cfg(seed), tr)
		if err != nil {
			return nil, err
		}
		if tr {
			prof = append(prof, r)
		} else {
			plain = append(plain, r)
		}
		host := r.spans["warmup"] + r.spans["measure"] + r.spans["collect"]
		fmt.Fprintf(log, "repeat %d (traced=%v): %.0f ns/op, %.3f s host, %d ops\n",
			i, tr, float64(host.Nanoseconds())/float64(r.res.Summary.Ops), host.Seconds(), r.res.Summary.Ops)
		if time.Since(start) >= budget && len(plain) >= minRepeats && (!traced || len(prof) >= minRepeats) {
			break
		}
	}

	mismatch := determinism(ver, append(plain, prof...))
	if mismatch != "" {
		fmt.Fprintf(log, "determinism: MISMATCH: %s\n", mismatch)
	}
	rep := &report{
		Correct:   ver.broken == "" && mismatch == "",
		Attempted: ver.attempted,
		Failed:    ver.failed,
	}

	setups := make([]float64, len(builds))
	for i := range builds {
		setups[i] = builds[i] / cals[i] * calRefSeconds
	}
	fmt.Fprintf(log, "setup: %d builds, median %.3f ms, calibration loop median %.3f ms\n",
		len(builds), 1e3*quantile(builds, 0.5), 1e3*quantile(cals, 0.5))
	values := map[string]float64{
		"setup_s":        quantile(setups, 0.5),
		"host_ns_per_op": fastHostNs(plain) / float64(plain[0].res.Summary.Ops),
		"live_heap_mb":   medianBy(plain, func(r *cellRun) float64 { return r.heapMB }),
	}
	for k, v := range ver.sim {
		values[k] = v
	}
	specs := endToEnd
	if traced {
		specs = perLayer
		for k, v := range plain[0].sim {
			values[k] = v
		}
		for k := range plain[0].host {
			values[k] = medianBy(plain, func(r *cellRun) float64 { return r.host[k] })
		}
		values["recovery.verify_s"] = medianBy(ver.passes, func(p *pass) float64 { return p.recoverTime.Seconds() })
		if err := traceMetrics(values, plain, prof, ver, log); err != nil {
			return nil, err
		}
	}
	if rep.Metrics, err = pick(specs, values); err != nil {
		return nil, err
	}
	printTable(log, specs, values)
	return rep, nil
}

// determinism compares every repeat's deterministic metrics with the first
// repeat's, and the window outcomes with the verification pass (which adds
// history tracking and must not change the simulation). It returns a
// description of the first difference, or "".
func determinism(ver *verdict, runs []*cellRun) string {
	ref := runs[0].sim
	for i, r := range runs {
		if len(r.sim) != len(ref) {
			return fmt.Sprintf("repeat %d reports %d counters, repeat 0 %d", i, len(r.sim), len(ref))
		}
		for _, k := range sortedKeys(ref) {
			if r.sim[k] != ref[k] {
				return fmt.Sprintf("repeat %d %s = %v, repeat 0 %v", i, k, r.sim[k], ref[k])
			}
		}
	}
	sum := ver.passes[0].summary
	for _, k := range sortedKeys(sum) {
		if sum[k] != ref[k] {
			return fmt.Sprintf("verification pass %s = %v, timed repeats %v", k, sum[k], ref[k])
		}
	}
	return ""
}

// traceMetrics adds the traced run's CPU shares, spans, sample count and
// tracing overhead to values.
func traceMetrics(values map[string]float64, plain, prof []*cellRun, ver *verdict, log io.Writer) error {
	byLayer := map[string]int64{}
	var total int64
	for _, r := range prof {
		samples, err := parseProfile(r.profile)
		if err != nil {
			return err
		}
		total += measureSamples(samples, byLayer)
	}
	if total == 0 {
		return fmt.Errorf("traced repeats recorded no measure-phase samples")
	}
	share := func(layer string) float64 { return float64(byLayer[layer]) / float64(total) }
	for _, l := range shareLayers {
		values[l+".cpu_share"] = share(l)
	}
	values["runtime.gc_share"] = share(layerGC)
	values["runtime.maps_share"] = share(layerMaps)
	values["runtime.other_share"] = share(layerOther)
	values["trace.samples"] = float64(total)
	fmt.Fprintf(log, "trace: %d measure-phase samples:", total)
	for _, l := range sortedKeys(byLayer) {
		fmt.Fprintf(log, " %s %.1f%%", l, 100*share(l))
	}
	fmt.Fprintln(log)

	for p := range prof[0].spans {
		values["span."+p+"_s"] = medianBy(prof, func(r *cellRun) float64 { return r.spans[p].Seconds() })
	}
	values["span.verify_s"] = medianBy(ver.passes, func(p *pass) float64 { return p.verifyTime.Seconds() })
	values["trace.overhead_frac"] = fastHostNs(prof)/fastHostNs(plain) - 1
	return nil
}

// confirm verifies a second, held-back seed: its correctness gate and a
// determinism check over two untraced repeats. Its end-to-end sim metrics
// go to the log; rep turns incorrect if the seed fails either check.
func confirm(w workload, seed uint64, rep *report, log io.Writer) error {
	ver, err := verifyAll(w, seed)
	if err != nil {
		return fmt.Errorf("seed2 verification pass: %w", err)
	}
	var runs []*cellRun
	for i := 0; i < 2; i++ {
		r, err := runCell(w.cfg(seed), false)
		if err != nil {
			return err
		}
		runs = append(runs, r)
	}
	mismatch := determinism(ver, runs)
	fmt.Fprintf(log, "seed2 %d: %d attempted, %d failed, broken=%q, determinism mismatch=%q\n",
		seed, ver.attempted, ver.failed, ver.broken, mismatch)
	for _, s := range endToEnd {
		if v, ok := ver.sim[s.name]; ok {
			fmt.Fprintf(log, "seed2 %d: %-16s %14.6g %s\n", seed, s.name, v, s.unit)
		}
	}
	if ver.broken != "" || mismatch != "" {
		rep.Correct = false
	}
	return nil
}

func printTable(log io.Writer, specs []metricSpec, values map[string]float64) {
	for _, s := range specs {
		fmt.Fprintf(log, "%-32s %14.6g %-10s %s\n", s.name, values[s.name], s.unit, s.kind)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
