package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"innermost internal frame wins", []string{
			"repro/internal/protocol.(*Replica).onInv",
			"repro/internal/simnet.(*delivery).OnEvent",
			"repro/internal/sim.(*Engine).Run",
			"main.runCell",
		}, "protocol"},
		{"closure names keep their package", []string{
			"repro/internal/cluster.New.func1",
			"repro/internal/sim.(*Engine).Run",
		}, "cluster"},
		{"plain runtime leaf goes to the caller's layer", []string{
			"runtime.memmove",
			"repro/internal/simnet.(*Network).Send",
			"repro/internal/sim.(*Engine).Run",
		}, "simnet"},
		{"swiss-table map leaf", []string{
			"internal/runtime/maps.(*Map).getWithKeySmall",
			"runtime.mapaccess1_fast64",
			"repro/internal/protocol.(*Replica).addTransC",
		}, layerMaps},
		{"bucket map leaf", []string{
			"runtime.mapassign_fast64",
			"repro/internal/protocol.(*Replica).addTransC",
		}, layerMaps},
		{"map hashing", []string{
			"runtime.memhash64",
			"runtime.mapaccess2",
			"repro/internal/recovery.CheckLinearizable",
		}, layerMaps},
		{"allocation under a plain runtime leaf", []string{
			"runtime.memclrNoHeapPointers",
			"runtime.mallocgc",
			"runtime.growslice",
			"repro/internal/cluster.(*nodeState).logWrite",
		}, layerGC},
		{"map growth allocates", []string{
			"runtime.mallocgc",
			"runtime.mapassign_fast64",
			"repro/internal/protocol.(*Replica).addTransC",
		}, layerGC},
		{"background mark worker", []string{
			"runtime.scanobject",
			"runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2",
			"runtime.gcBgMarkWorker",
		}, layerGC},
		{"map code above the leaf does not count", []string{
			"repro/internal/engines.(*HashTable).Put",
			"runtime.mapassign_fast64",
			"repro/internal/protocol.(*Replica).apply",
		}, "engines"},
		{"no simulator frame", []string{
			"runtime.futex",
			"runtime.notesleep",
			"main.main",
		}, layerOther},
		{"empty stack", nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestMeasureSamples(t *testing.T) {
	measure := map[string]string{phaseLabel: "measure"}
	samples := []profSample{
		{stack: []string{"repro/internal/sim.(*Engine).Run"}, labels: measure, count: 3},
		{stack: []string{"runtime.mapaccess1_fast64", "repro/internal/protocol.f"}, labels: measure, count: 2},
		{stack: []string{"repro/internal/sim.(*Engine).Run"}, labels: map[string]string{phaseLabel: "warmup"}, count: 7},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 4},
		{stack: []string{"runtime/pprof.profileWriter"}, count: 5},
	}
	got := map[string]int64{}
	if n := measureSamples(samples, got); n != 9 {
		t.Errorf("measureSamples counted %d samples, want 9", n)
	}
	want := map[string]int64{"sim": 3, layerMaps: 2, layerGC: 4}
	if len(got) != len(want) {
		t.Errorf("layers = %v, want %v", got, want)
	}
	for l, n := range want {
		if got[l] != n {
			t.Errorf("layer %s = %d samples, want %d", l, got[l], n)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) float64 {
	x := 1.0
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

// TestParseProfile round-trips a real CPU profile through the decoder: the
// labelled samples must come back with their label and with this test's
// spinning function on the stack.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels(phaseLabel, "measure"), func(context.Context) {
		spinForProfile(400 * time.Millisecond)
	})
	pprof.StopCPUProfile()

	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var labelled, spinning int64
	for _, s := range samples {
		if s.labels[phaseLabel] != "measure" {
			continue
		}
		labelled += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".spinForProfile") {
				spinning += s.count
				break
			}
		}
	}
	if labelled < 5 || spinning*2 < labelled {
		t.Errorf("decoded %d labelled samples, %d in spinForProfile; want most of >= 5", labelled, spinning)
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestMetricNames(t *testing.T) {
	if err := checkSpecs(endToEnd, perLayer); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "a b", "µs", "x/y", ".lead", strings.Repeat("a", 65)} {
		if checkSpecs([]metricSpec{{name: bad}}) == nil {
			t.Errorf("checkSpecs accepted %q", bad)
		}
	}
	if checkSpecs([]metricSpec{{name: "a"}}, []metricSpec{{name: "a"}}) == nil {
		t.Error("checkSpecs accepted a repeated name")
	}
}

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics and
// workloads the program reports in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		list  []struct{ Name, Unit, Better string }
		specs []metricSpec
	}{{bj.EndToEnd, endToEnd}, {bj.PerLayer, perLayer}} {
		if len(c.list) != len(c.specs) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.list), len(c.specs))
			continue
		}
		for i, s := range c.specs {
			if m := c.list[i]; m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
				t.Errorf("metric %d: BENCHMARK.json has %+v, the program %+v", i, m, s)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	v := []int64{50, 10, 40, 20, 30}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 30}, {20, 10}, {21, 20}, {99.9, 50}, {100, 50}} {
		if got := pct(v, c.p); got != c.want {
			t.Errorf("pct(p%g) = %v, want %v", c.p, got, c.want)
		}
	}
	// 1000 samples leave exactly one beyond p99.9; 10000 leave ten.
	if tail := 1000 - rankIndex(1000, 99.9) - 1; tail != 1 {
		t.Errorf("tail of 1000 = %d, want 1", tail)
	}
	if tail := 10000 - rankIndex(10000, 99.9) - 1; tail != 10 {
		t.Errorf("tail of 10000 = %d, want 10", tail)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{40, 10, 30, 20}
	for _, c := range []struct {
		q, want float64
	}{{0, 10}, {0.5, 25}, {1, 40}, {0.1, 13}, {2.0 / 3, 30}} {
		if got := quantile(v, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%g) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, hostQuantile); got != 7 {
		t.Errorf("quantile of one sample = %v, want 7", got)
	}
}

func TestDeterminismCheck(t *testing.T) {
	run := func(ops float64) *cellRun {
		return &cellRun{sim: map[string]float64{"summary.ops": ops, "sim.events_per_op": 21}}
	}
	ver := &verdict{passes: []*pass{{summary: map[string]float64{"summary.ops": 100}}}}
	if msg := determinism(ver, []*cellRun{run(100), run(100)}); msg != "" {
		t.Errorf("identical repeats reported %q", msg)
	}
	if msg := determinism(ver, []*cellRun{run(100), run(101)}); !strings.Contains(msg, "repeat 1") {
		t.Errorf("differing repeat reported %q", msg)
	}
	if msg := determinism(ver, []*cellRun{run(99), run(99)}); !strings.Contains(msg, "verification pass") {
		t.Errorf("repeats differing from the verification pass reported %q", msg)
	}
}

func TestSubSeedsDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := uint64(1); seed <= 10; seed++ {
		if subSeed(seed, 0) != seed {
			t.Errorf("pass 0 of seed %d runs seed %d", seed, subSeed(seed, 0))
		}
		for i := 0; i < 16; i++ {
			s := subSeed(seed, i)
			if seen[s] {
				t.Errorf("seed %d pass %d repeats seed %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// TestSmoke runs every workload at a reduced length through the whole
// traced run: it builds, runs, passes the correctness gate and the
// determinism check, and reports every per-layer metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			full := w.cfg
			w.passes = 2 // two passes run concurrently
			w.cfg = func(seed uint64) cluster.Config {
				c := full(seed)
				// Long enough that the window holds 10000 reads and
				// 10000 writes, so p99.9 has ten samples beyond it.
				c.WarmupNs, c.MeasureNs = 300_000, 2_000_000
				return c
			}
			rep, err := bench(w, 1, 0, true, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("correct=%v attempted=%d failed=%d", rep.Correct, rep.Attempted, rep.Failed)
			}
			if len(rep.Metrics) != len(perLayer) {
				t.Errorf("reported %d metrics, want %d", len(rep.Metrics), len(perLayer))
			}
			if v := rep.Metrics["sim.events_per_op"].Value; v <= 0 {
				t.Errorf("sim.events_per_op = %v", v)
			}
		})
	}
}
