package main

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// The -bench-out mode measures workflow-admission throughput: how fast the
// planner subsystem turns workflows into resource-capped scheduling plans.
// It drives the Yahoo-derived 61-workflow population plus the Fig 7 topology
// through three planner configurations — the seed-equivalent sequential
// path, the speculative parallel search, and a warm structural cache — and
// writes the numbers as JSON so runs are comparable across commits.

// planBenchReport is the JSON document -bench-out writes.
type planBenchReport struct {
	// GoMaxProcs records the core budget: parallel-search speedup is
	// bounded by it (on a single-core host expect ~1x from parallelism,
	// with cache and pooling wins unaffected).
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	Corpus     struct {
		Workflows   int     `json:"workflows"`
		ClusterMaps int     `json:"cluster_map_slots"`
		ClusterReds int     `json:"cluster_reduce_slots"`
		Policy      string  `json:"policy"`
		Margin      float64 `json:"margin"`
	} `json:"corpus"`
	Modes []planBenchMode `json:"modes"`
	// Speedups are sequential ns/plan divided by the mode's ns/plan.
	SpeedupParallel  float64 `json:"speedup_parallel_x"`
	SpeedupWarmCache float64 `json:"speedup_warm_cache_x"`
	// Fig8Sweep compares planning the full Fig 8 corpus per-cell (the seed
	// behavior: every WOHA cell regenerates each of its plans) against one
	// shared coalescing planner, with the exactly-once accounting and the
	// streamed-figure evidence.
	Fig8Sweep planBenchSweep `json:"fig8_sweep"`
	// Contended hammers one warm shared planner from many goroutines with
	// colliding keys: the cache-mutex overhead under contention, shown
	// against the sequential generation cost it replaces.
	Contended planBenchContended `json:"contended"`
}

type planBenchMode struct {
	Name           string  `json:"name"`
	PlansPerSec    float64 `json:"plans_per_sec"`
	NsPerPlan      int64   `json:"ns_per_plan"`
	AllocsPerPlan  int64   `json:"allocs_per_plan"`
	BytesPerPlan   int64   `json:"bytes_per_plan"`
	AvgSearchIters float64 `json:"avg_search_iters"`
}

// planBenchSweep is the shared-vs-per-cell comparison over the 18-cell
// Fig 8 sweep. DistinctKeysSimulated + CacheHits + Coalesced always equals
// PlansServed, and with zero duplicate fills "distinct keys simulated"
// is exactly the number of Algorithm 1 cap searches that ran.
type planBenchSweep struct {
	Cells                  int     `json:"cells"`
	WohaCells              int     `json:"woha_cells"`
	Passes                 int     `json:"passes"`
	PerCellPlanNs          int64   `json:"per_cell_plan_ns"`
	SharedPlanNs           int64   `json:"shared_plan_ns"`
	SpeedupShared          float64 `json:"speedup_shared_x"`
	PlansServed            int64   `json:"plans_served"`
	DistinctKeysSimulated  int64   `json:"distinct_keys_simulated"`
	CacheHits              int64   `json:"cache_hits"`
	Coalesced              int64   `json:"coalesced"`
	DuplicateFills         int64   `json:"duplicate_fills"`
	FiguresByteIdentical   bool    `json:"figures_byte_identical"`
	CellsDoneAtFirstRow    int64   `json:"cells_done_at_first_row"`
	FirstRowBeforeLastCell bool    `json:"first_row_before_last_cell"`
}

// planBenchContended measures the shared planner under many concurrent
// same-key clients, all served from the warm cache through its mutex.
type planBenchContended struct {
	Goroutines          int     `json:"goroutines"`
	PlansPerSec         float64 `json:"plans_per_sec"`
	NsPerPlan           int64   `json:"ns_per_plan"`
	SpeedupVsSequential float64 `json:"speedup_vs_sequential_x"`
	DuplicateFills      int64   `json:"duplicate_fills"`
}

var planBenchCluster = plan.Caps{Maps: 300, Reduces: 180}

func planBenchCorpus() ([]*workflow.Workflow, error) {
	flows, err := workload.Yahoo(workload.DefaultYahooConfig())
	if err != nil {
		return nil, err
	}
	flows = append(flows, workload.Fig7("fig7", 1.0, simtime.Epoch, simtime.Epoch.Add(45*time.Minute)))
	return flows, nil
}

// runPlanBench measures the three configurations and writes the JSON report
// to path ("-" for stdout),
// echoing a summary table through emitReport.
func runPlanBench(path string, out io.Writer) error {
	flows, err := planBenchCorpus()
	if err != nil {
		return err
	}
	pol := priority.HLF{}

	var report planBenchReport
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.GoVersion = runtime.Version()
	report.Corpus.Workflows = len(flows)
	report.Corpus.ClusterMaps = planBenchCluster.Maps
	report.Corpus.ClusterReds = planBenchCluster.Reduces
	report.Corpus.Policy = pol.Name()
	report.Corpus.Margin = planner.DefaultMargin

	modes := []struct {
		name string
		mk   func() *planner.Planner
		warm bool
	}{
		{"sequential", func() *planner.Planner { return planner.New(planner.Config{}) }, false},
		{"parallel", func() *planner.Planner {
			return planner.New(planner.Config{Workers: runtime.GOMAXPROCS(0)})
		}, false},
		{"warm-cache", func() *planner.Planner {
			return planner.New(planner.Config{Workers: runtime.GOMAXPROCS(0), CacheSize: 2 * len(flows)})
		}, true},
	}
	for _, m := range modes {
		pl := m.mk()
		if m.warm {
			for _, w := range flows {
				if _, err := pl.Plan(w, planBenchCluster, pol); err != nil {
					return fmt.Errorf("warming %s: %w", m.name, err)
				}
			}
		}
		// Average SearchIters over one full corpus pass (cache hits report
		// 0: they run no simulations).
		var iters int
		for _, w := range flows {
			p, err := pl.Plan(w, planBenchCluster, pol)
			if err != nil {
				return fmt.Errorf("%s: planning %s: %w", m.name, w.Name, err)
			}
			iters += p.SearchIters
		}

		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pl.Plan(flows[i%len(flows)], planBenchCluster, pol); err != nil {
					b.Fatalf("Plan: %v", err)
				}
			}
		})
		ns := r.NsPerOp()
		report.Modes = append(report.Modes, planBenchMode{
			Name:           m.name,
			PlansPerSec:    1e9 / float64(ns),
			NsPerPlan:      ns,
			AllocsPerPlan:  r.AllocsPerOp(),
			BytesPerPlan:   r.AllocedBytesPerOp(),
			AvgSearchIters: float64(iters) / float64(len(flows)),
		})
	}
	seq := float64(report.Modes[0].NsPerPlan)
	report.SpeedupParallel = seq / float64(report.Modes[1].NsPerPlan)
	report.SpeedupWarmCache = seq / float64(report.Modes[2].NsPerPlan)

	if report.Fig8Sweep, err = planBenchSweepSection(); err != nil {
		return err
	}
	if report.Contended, err = planBenchContendedSection(flows, pol, report.Modes[0].NsPerPlan); err != nil {
		return err
	}

	return emitReport(path, out, &report, func(out io.Writer) error {
		fmt.Fprintf(out, "plan benchmark (%d workflows, %d map + %d reduce slots, GOMAXPROCS=%d):\n",
			len(flows), planBenchCluster.Maps, planBenchCluster.Reduces, report.GoMaxProcs)
		for _, m := range report.Modes {
			fmt.Fprintf(out, "  %-11s %10.0f plans/sec  %7d allocs/plan  %6.1f avg simulations/plan\n",
				m.Name, m.PlansPerSec, m.AllocsPerPlan, m.AvgSearchIters)
		}
		fmt.Fprintf(out, "  speedup: parallel %.2fx, warm cache %.2fx (vs sequential)\n",
			report.SpeedupParallel, report.SpeedupWarmCache)
		sw := report.Fig8Sweep
		fmt.Fprintf(out, "  fig8 sweep (%d cells, %d WOHA, %d passes): shared planner %.2fx vs per-cell; "+
			"%d plans = %d simulated + %d hits + %d coalesced, %d duplicate fills; "+
			"figures identical %v; first row streamed after %d/%d cells\n",
			sw.Cells, sw.WohaCells, sw.Passes, sw.SpeedupShared,
			sw.PlansServed, sw.DistinctKeysSimulated, sw.CacheHits, sw.Coalesced, sw.DuplicateFills,
			sw.FiguresByteIdentical, sw.CellsDoneAtFirstRow, sw.Cells)
		fmt.Fprintf(out, "  contended (%d goroutines on one warm planner): %.0f plans/sec, %.2fx vs sequential generation, %d duplicate fills\n",
			report.Contended.Goroutines, report.Contended.PlansPerSec,
			report.Contended.SpeedupVsSequential, report.Contended.DuplicateFills)
		return nil
	})
}

// planBenchSweepSection compares the 18-cell Fig 8 corpus planned per-cell
// (the seed behavior) against one shared coalescing planner. The timing runs
// two passes over the corpus — planning the sweep and re-planning it, as a
// repeated experiment, parity run, or recurring workload does — because this
// corpus's keys are all distinct within a single pass, so the first pass must
// simulate every key either way and the re-serve is where sharing pays. It
// then replays the actual figure sweep through a fresh shared planner to
// check byte-identical figures and that the first figure row streamed out
// while later cells were still pending.
func planBenchSweepSection() (planBenchSweep, error) {
	s := planBenchSweep{Passes: 2}
	base := experiments.DefaultFig8Config()

	// planPass generates every WOHA cell's plans once.
	planPass := func(cfg experiments.Fig8Config) (cells, woha int, d time.Duration, err error) {
		cs, err := experiments.Fig8Cells(cfg)
		if err != nil {
			return 0, 0, 0, err
		}
		t0 := time.Now()
		for _, c := range cs {
			if c.Plans == nil {
				continue
			}
			woha++
			if _, err := c.Plans(); err != nil {
				return 0, 0, 0, err
			}
		}
		return len(cs), woha, time.Since(t0), nil
	}

	var perCell, shared time.Duration
	for i := 0; i < s.Passes; i++ {
		var d time.Duration
		var err error
		if s.Cells, s.WohaCells, d, err = planPass(base); err != nil {
			return s, err
		}
		perCell += d
	}
	o := obs.New(obs.NewRegistry(), nil)
	cfg := base
	cfg.Planner = planner.New(planner.Config{CacheSize: 4096, Margin: base.Margin, Obs: o})
	for i := 0; i < s.Passes; i++ {
		_, _, d, err := planPass(cfg)
		if err != nil {
			return s, err
		}
		shared += d
	}
	s.PerCellPlanNs, s.SharedPlanNs = perCell.Nanoseconds(), shared.Nanoseconds()
	if s.SharedPlanNs > 0 {
		s.SpeedupShared = float64(s.PerCellPlanNs) / float64(s.SharedPlanNs)
	}
	st := cfg.Planner.Stats()
	s.PlansServed = st.Plans.Value()
	s.DistinctKeysSimulated = st.CacheMisses.Value()
	s.CacheHits = st.CacheHits.Value()
	s.Coalesced = st.Coalesced.Value()
	s.DuplicateFills = st.DuplicateFills.Value()

	// Figure replay: per-cell baseline vs a streamed shared-planner sweep.
	renderAll := func(r *experiments.Fig8Result) (string, error) {
		var sb strings.Builder
		for _, t := range []*experiments.Table{r.MissTable(), r.MaxTardTable(), r.TotalTardTable()} {
			if err := t.Render(&sb); err != nil {
				return "", err
			}
		}
		return sb.String(), nil
	}
	direct, err := experiments.Fig8(base)
	if err != nil {
		return s, err
	}
	reg := obs.NewRegistry()
	run := base
	run.Obs = obs.New(reg, nil)
	run.Planner = planner.New(planner.Config{CacheSize: 4096, Margin: base.Margin, Obs: run.Obs})
	cellsDone := reg.Counter(obs.MetricRunnerCells, "Scenario cells executed by the runner.")
	first := true
	sharedRes, err := experiments.Fig8Each(run, func(experiments.Fig8Row) error {
		if first {
			s.CellsDoneAtFirstRow = cellsDone.Value()
			first = false
		}
		return nil
	})
	if err != nil {
		return s, err
	}
	s.FirstRowBeforeLastCell = !first && s.CellsDoneAtFirstRow < int64(s.Cells)
	dTables, err := renderAll(direct)
	if err != nil {
		return s, err
	}
	sTables, err := renderAll(sharedRes)
	if err != nil {
		return s, err
	}
	s.FiguresByteIdentical = dTables == sTables
	return s, nil
}

// planBenchContendedSection hammers one warm shared planner from many
// goroutines requesting colliding keys: every request is served through the
// cache mutex, so this is the worst case for lock contention erasing the
// cache win. sequentialNs is the uncached generation cost the speedup is
// measured against.
func planBenchContendedSection(flows []*workflow.Workflow, pol priority.Policy, sequentialNs int64) (planBenchContended, error) {
	c := planBenchContended{Goroutines: 64}
	o := obs.New(obs.NewRegistry(), nil)
	pl := planner.New(planner.Config{CacheSize: 2 * len(flows), Margin: planner.DefaultMargin, Obs: o})
	for _, w := range flows {
		if _, err := pl.Plan(w, planBenchCluster, pol); err != nil {
			return c, fmt.Errorf("warming contended planner: %w", err)
		}
	}
	var benchErr error
	var once sync.Once
	r := testing.Benchmark(func(b *testing.B) {
		procs := runtime.GOMAXPROCS(0)
		b.SetParallelism((c.Goroutines + procs - 1) / procs)
		var next atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				i := int(next.Add(1)) - 1
				if _, err := pl.Plan(flows[i%len(flows)], planBenchCluster, pol); err != nil {
					once.Do(func() { benchErr = err })
					return
				}
			}
		})
	})
	if benchErr != nil {
		return c, benchErr
	}
	c.NsPerPlan = r.NsPerOp()
	if c.NsPerPlan > 0 {
		c.PlansPerSec = 1e9 / float64(c.NsPerPlan)
		c.SpeedupVsSequential = float64(sequentialNs) / float64(c.NsPerPlan)
	}
	c.DuplicateFills = pl.Stats().DuplicateFills.Value()
	return c, nil
}
