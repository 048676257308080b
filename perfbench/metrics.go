package main

import (
	"fmt"
	"regexp"
	"sort"
)

// Metric kinds. Host metrics vary from run to run; sim metrics come from the
// deterministic simulator and must repeat exactly for one seed; trace
// metrics come from the profiled repeats of the traced run.
const (
	kindHost  = "host"
	kindSim   = "sim"
	kindTrace = "trace"
)

// metricSpec declares one reported metric. BENCHMARK.json lists the same
// names, units and directions (TestBenchmarkJSONMatchesSpecs).
type metricSpec struct {
	name, unit, better, kind string
}

// endToEnd are the metrics of a --trace 0 run.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", kindHost},
	{"live_heap_mb", "MB", "lower", kindHost},
	{"sim_mops", "Mops/sim-s", "higher", kindSim},
	{"read_mean_us", "us", "lower", kindSim},
	{"read_p999_us", "us", "lower", kindSim},
	{"write_mean_us", "us", "lower", kindSim},
	{"write_p999_us", "us", "lower", kindSim},
}

// shareLayers are the layers whose CPU share the traced run reports: the
// simulator's own packages, plus the Go runtime split three ways.
var shareLayers = []string{"sim", "simnet", "nvm", "protocol", "engines", "memhier", "ycsb", "stats", "cluster", "core"}

// perLayer are the metrics of a --trace 1 run.
var perLayer = func() []metricSpec {
	m := []metricSpec{
		{"host_ns_per_op", "ns", "lower", kindHost},
		{"sim.events_per_op", "count", "lower", kindSim},
		{"sim.host_ns_per_event", "ns", "lower", kindHost},
		{"sim.max_pending", "count", "lower", kindSim},
		{"sim.pool_wait_ns", "ns", "lower", kindSim},
		{"sim.pool_busy_frac", "ratio", "lower", kindSim},
		{"sim.pool_jobs_per_op", "count", "lower", kindSim},
		{"simnet.msgs_per_op", "count", "lower", kindSim},
		{"simnet.bytes_per_op", "B", "lower", kindSim},
		{"simnet.mean_delay_ns", "ns", "lower", kindSim},
		{"nvm.writes_per_op", "count", "lower", kindSim},
		{"nvm.reads_per_op", "count", "lower", kindSim},
		{"nvm.mean_wait_ns", "ns", "lower", kindSim},
		{"nvm.max_wait_ns", "ns", "lower", kindSim},
		{"nvm.max_queue", "count", "lower", kindSim},
		{"nvm.busy_frac", "ratio", "lower", kindSim},
		{"protocol.read_stall_frac", "ratio", "lower", kindSim},
		{"protocol.read_stall_ns", "ns", "lower", kindSim},
		{"protocol.write_stall_frac", "ratio", "lower", kindSim},
		{"protocol.write_stall_ns", "ns", "lower", kindSim},
		{"protocol.persist_conflict_frac", "ratio", "lower", kindSim},
		{"cluster.routed_frac", "ratio", "lower", kindSim},
		{"cluster.node_imbalance", "ratio", "lower", kindSim},
		{"cluster.group_imbalance", "ratio", "lower", kindSim},
		{"cluster.inflight_peak", "count", "lower", kindSim},
		{"cluster.reads", "count", "higher", kindSim},
		{"cluster.writes", "count", "higher", kindSim},
		{"recovery.lost_acked_frac", "ratio", "lower", kindSim},
		{"recovery.failed_frac", "ratio", "lower", kindSim},
		{"recovery.verify_s", "s", "lower", kindHost},
		{"runtime.allocs_per_op", "count", "lower", kindHost},
		{"runtime.alloc_bytes_per_op", "B", "lower", kindHost},
		{"runtime.gc_cycles", "count", "lower", kindHost},
	}
	for _, l := range shareLayers {
		m = append(m, metricSpec{l + ".cpu_share", "ratio", "lower", kindTrace})
	}
	for _, l := range []string{"gc", "maps", "other"} {
		m = append(m, metricSpec{"runtime." + l + "_share", "ratio", "lower", kindTrace})
	}
	for _, p := range phases {
		m = append(m, metricSpec{"span." + p + "_s", "s", "lower", kindTrace})
	}
	return append(m,
		metricSpec{"trace.samples", "count", "higher", kindTrace},
		metricSpec{"trace.overhead_frac", "ratio", "lower", kindTrace},
	)
}()

// phases are the benchmark's own phases, each wrapped in a pprof label and
// timed as a span.
var phases = []string{"setup", "warmup", "measure", "collect", "verify"}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkSpecs reports the first malformed or repeated metric name.
func checkSpecs(specs ...[]metricSpec) error {
	seen := map[string]bool{}
	for _, list := range specs {
		for _, s := range list {
			if !metricName.MatchString(s.name) {
				return fmt.Errorf("metric name %q is not [A-Za-z0-9_.-]", s.name)
			}
			if seen[s.name] {
				return fmt.Errorf("metric %q declared twice", s.name)
			}
			seen[s.name] = true
		}
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// pick builds the metrics object for specs from values, failing on any
// spec without a value.
func pick(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.name)
		}
		out[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return out, nil
}

// quantile returns the q-quantile of v, interpolating linearly between
// neighbouring order statistics (q = 0.5 is the median).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// quantileBy returns the q-quantile of f over xs.
func quantileBy[T any](xs []T, q float64, f func(T) float64) float64 {
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	return quantile(v, q)
}

// medianBy returns the median of f over xs.
func medianBy[T any](xs []T, f func(T) float64) float64 { return quantileBy(xs, 0.5, f) }

// hostQuantile is the quantile of a slice's host time over the repeats
// (see fastHostNs): the lower decile, which reads the host's fast phase and
// stays clear of the slow one.
const hostQuantile = 0.1

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
