package main

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/params"
	"repro/internal/ycsb"
)

// workload is one reference cell: a cluster configuration built from the
// workload seed. Every cell is YCSB-A on the hashtable engine with the
// program's default placement and knobs, and runs on the sequential engine.
type workload struct {
	name string
	why  string
	// passes is how many verification passes, each on its own sub-seed,
	// the end-to-end sim metrics pool: enough that their spread across
	// workload seeds stays well inside the bounds in BENCHMARK.json.
	passes int
	cfg    func(seed uint64) cluster.Config
}

// openLinRate is the open-loop cell's offered load: 0.75x the knee of that
// cell, which sustains 17 Mops/s, starts to lag at 18 Mops/s (98.9%
// completed) and collapses at 19 Mops/s (47%). See README.md.
const openLinRate = 13.5e6

var (
	linSync   = core.Model{C: core.Linearizable, P: core.Synchronous}
	evEv      = core.Model{C: core.Eventual, P: core.EventualP}
	linStrict = core.Model{C: core.Linearizable, P: core.Strict}
)

var workloads = []workload{
	{
		name:   "paper-lin",
		passes: 16,
		why:    "the paper's Figure 6 cell (5x20 closed loop, YCSB-A) at <Lin,Sync>: INV/ACK/VAL round and synchronous persist on the critical path",
		cfg: func(seed uint64) cluster.Config {
			return cluster.Config{Model: linSync, Workload: ycsb.WorkloadA, Params: params.Default(), Seed: seed}
		},
	},
	{
		name:   "paper-ev",
		passes: 2,
		why:    "same cell at <Ev,Ev>: no INV/ACK sets, persists off the critical path, 4.8x the ops, so scheduler and engines dominate; the only one that loses acked writes",
		cfg: func(seed uint64) cluster.Config {
			return cluster.Config{Model: evEv, Workload: ycsb.WorkloadA, Params: params.Default(), Seed: seed}
		},
	},
	{
		name:   "sharded-skew",
		passes: 6,
		why:    "48 nodes (16 shards x rf 3), 2 clients/server, zipf 0.999, <Lin,Strict>: the only cell with routing and a hot group, and the largest to build",
		cfg: func(seed uint64) cluster.Config {
			p := params.Default()
			p.Servers = 48
			p.ClientsPerServer = 2
			p.ZipfTheta = 0.999
			return cluster.Config{Model: linStrict, Workload: ycsb.WorkloadA, Params: p, Shards: 16, Seed: seed}
		},
	},
	{
		name:   "open-lin",
		passes: 6,
		why:    "open-loop Poisson at 13.5 Mops/s (0.75x knee), 5 servers, <Lin,Sync>: queueing shows in p999 because latency runs from the intended arrival",
		cfg: func(seed uint64) cluster.Config {
			return cluster.Config{
				Model: linSync, Workload: ycsb.WorkloadA, Params: params.Default(), Seed: seed,
				Arrivals: &ycsb.ArrivalSpec{Shape: ycsb.ShapePoisson, RatePerSec: openLinRate},
			}
		},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}
