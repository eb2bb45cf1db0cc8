package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/runner"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// The -sim-bench-out mode measures simulation throughput: how fast the
// discrete-event cluster replays the Fig 8 experiment corpus (six schedulers
// x three cluster sizes over the 61-workflow Yahoo population). Plans are
// generated once up front so the numbers isolate the simulator hot path, and
// the corpus is timed serially and over an 8-worker pool — the runner
// guarantees identical results either way, so the ratio is pure wall-clock.

// simCoreLabel names the simulator memory layout and policy-decision path
// the canonical numbers are measured on; it keys the per-mode throughput
// history so re-baselining after a core rewrite preserves the prior
// generation's figures. "soa-arena+o1-policy" is the arena core with
// constant-time policy decisions: the bucketed lag index in the DSL, pooled
// ct/set nodes, and per-workflow schedulable-job indexes.
const simCoreLabel = "soa-arena+o1-policy"

// preSoaCoreLabel labels history entries inherited from a BENCH_sim.json
// written before core labels existed (the map-based pop-per-event core).
const preSoaCoreLabel = "pre-soa-map-core"

// simBenchReport is the JSON document -sim-bench-out writes.
type simBenchReport struct {
	// Core labels the simulator memory layout behind the canonical numbers
	// (see History for earlier generations).
	Core string `json:"core"`
	// GoMaxProcs records the core budget: the parallel speedup is bounded
	// by it (on a single-core host expect ~1x from parallelism; re-baseline
	// on a multi-core host to see the pool win).
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	Corpus     struct {
		Cells         int `json:"cells"`
		Schedulers    int `json:"schedulers"`
		ClusterSizes  int `json:"cluster_sizes"`
		Workflows     int `json:"workflows_per_cell"`
		EventsPerPass int `json:"simulated_events_per_pass"`
	} `json:"corpus"`
	Modes []simBenchMode `json:"modes"`
	// SpeedupParallel is serial ns/pass divided by the pool's ns/pass.
	SpeedupParallel float64 `json:"speedup_parallel_x"`
	// AllocsPerScenario is the steady-state heap allocations one pooled
	// corpus-scale scenario performs end to end (New + Submit + Run +
	// Release with a pre-built minimal policy, warm pool) — the quantity
	// the arena refactor drives toward zero; the Result value and its
	// Workflows slice are the tolerated remainder.
	AllocsPerScenario float64 `json:"allocs_per_scenario_steady_state"`
	Note              string  `json:"note,omitempty"`
	// History carries one entry per (core, mode) from earlier baselines:
	// when the benchmark runs against a file whose canonical numbers were
	// measured on another core generation (or on this one), those numbers
	// are folded in here before being overwritten. The top-level Modes
	// stay canonical; History is append-only evidence of the progression.
	History []simBenchHistory `json:"history,omitempty"`
}

type simBenchMode struct {
	Name            string  `json:"name"`
	Workers         int     `json:"workers"`
	ScenariosPerSec float64 `json:"scenarios_per_sec"`
	NsPerScenario   int64   `json:"ns_per_scenario"`
	NsPerSimEvent   float64 `json:"ns_per_simulated_event"`
	NsPerPass       int64   `json:"ns_per_pass"`
}

// simBenchHistory is one preserved per-mode measurement from an earlier
// baseline run.
type simBenchHistory struct {
	Core          string  `json:"core"`
	Mode          string  `json:"mode"`
	GoMaxProcs    int     `json:"go_max_procs"`
	NsPerSimEvent float64 `json:"ns_per_simulated_event"`
}

// simBenchCells builds the Fig 8 corpus with every cell's plans generated
// eagerly and memoized, so repeated passes time only the simulator.
func simBenchCells() ([]runner.Cell, error) {
	cells, err := experiments.Fig8Cells(experiments.DefaultFig8Config())
	if err != nil {
		return nil, err
	}
	for i := range cells {
		if cells[i].Plans == nil {
			continue
		}
		plans, err := cells[i].Plans()
		if err != nil {
			return nil, fmt.Errorf("pre-generating plans for %s: %w", cells[i].Name, err)
		}
		cells[i].Plans = func() ([]*plan.Plan, error) { return plans, nil }
	}
	return cells, nil
}

// loadSimBenchHistory reads the committed report at path (when present) and
// returns its history with the prior canonical per-mode numbers folded in.
// Each (core, mode) pair is kept once — the first measurement of that
// generation survives repeated re-baselines.
func loadSimBenchHistory(path string) []simBenchHistory {
	if path == "-" {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prior simBenchReport
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil
	}
	hist := prior.History
	seen := make(map[[2]string]bool, len(hist)+len(prior.Modes))
	for _, h := range hist {
		seen[[2]string{h.Core, h.Mode}] = true
	}
	core := prior.Core
	if core == "" {
		core = preSoaCoreLabel
	}
	for _, m := range prior.Modes {
		if seen[[2]string{core, m.Name}] {
			continue
		}
		hist = append(hist, simBenchHistory{
			Core:          core,
			Mode:          m.Name,
			GoMaxProcs:    prior.GoMaxProcs,
			NsPerSimEvent: m.NsPerSimEvent,
		})
	}
	return hist
}

// measureScenarioAllocs replays one corpus-sized scenario (the first Fig 8
// cell's cluster and workflow population, no plans) through the pooled
// simulator with pre-built minimal FIFO policies and returns the
// steady-state heap allocations per run. Policies live outside the measured
// closure so the number isolates the simulator core, mirroring the
// TestScenarioAllocs pins in internal/cluster.
func measureScenarioAllocs(c *runner.Cell) (float64, error) {
	const iters = 10
	pols := make([]*benchPinPolicy, iters+2)
	for i := range pols {
		pols[i] = newBenchPinPolicy()
	}
	var firstErr error
	i := 0
	run := func() {
		pol := pols[i%len(pols)]
		i++
		sim, err := cluster.New(c.Config, pol, nil)
		if err != nil {
			firstErr = err
			return
		}
		for _, w := range c.Flows {
			if err := sim.Submit(w, nil); err != nil {
				firstErr = err
				return
			}
		}
		if _, err := sim.Run(); err != nil {
			firstErr = err
			return
		}
		sim.Release()
	}
	run()
	run()
	allocs := testing.AllocsPerRun(iters, run)
	return allocs, firstErr
}

// benchPinPolicy is the minimal FIFO used by the allocation measurement;
// its queue capacity is pre-grown so policy bookkeeping never shows up in
// the simulator's number.
type benchPinPolicy struct{ queue []benchPinEntry }

type benchPinEntry struct {
	ws  *cluster.WorkflowState
	job workflow.JobID
}

func newBenchPinPolicy() *benchPinPolicy {
	return &benchPinPolicy{queue: make([]benchPinEntry, 0, 128)}
}

func (p *benchPinPolicy) Name() string                                       { return "bench-pin" }
func (p *benchPinPolicy) WorkflowAdded(*cluster.WorkflowState, simtime.Time) {}
func (p *benchPinPolicy) TaskStarted(*cluster.WorkflowState, workflow.JobID, cluster.SlotType, simtime.Time) {
}
func (p *benchPinPolicy) WorkflowCompleted(*cluster.WorkflowState, simtime.Time) {}

func (p *benchPinPolicy) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	p.queue = append(p.queue, benchPinEntry{ws: ws, job: job})
}

func (p *benchPinPolicy) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	w := 0
	for _, e := range p.queue {
		js := &e.ws.Jobs[e.job]
		if js.Completed() {
			continue
		}
		p.queue[w] = e
		w++
		if js.Schedulable(st) {
			return e.ws, e.job, true
		}
	}
	p.queue = p.queue[:w]
	return nil, 0, false
}

// runSimBench measures the corpus serially and over an 8-worker pool and
// writes the JSON report to path ("-" for stdout),
// echoing a summary through emitReport.
func runSimBench(path string, out io.Writer) error {
	cells, err := simBenchCells()
	if err != nil {
		return err
	}

	var report simBenchReport
	report.Core = simCoreLabel
	report.History = loadSimBenchHistory(path)
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.GoVersion = runtime.Version()
	report.Corpus.Cells = len(cells)
	report.Corpus.Schedulers = len(experiments.AllSchedulers())
	report.Corpus.ClusterSizes = len(experiments.DefaultFig8Config().Sizes)
	report.Corpus.Workflows = len(cells[0].Flows)
	if report.GoMaxProcs < 8 {
		report.Note = fmt.Sprintf("measured with GOMAXPROCS=%d: the 8-worker pool cannot beat serial without cores to run on; re-baseline on a multi-core host", report.GoMaxProcs)
	}

	// Warmup pass: verifies the corpus runs clean, fills the simulator pool,
	// and counts the simulated events a pass replays.
	results, err := runner.New(runner.Config{Workers: 1}).RunAll(cells)
	if err != nil {
		return err
	}
	for _, res := range results {
		report.Corpus.EventsPerPass += res.SimulatedEvents
	}

	for _, m := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel-8", 8},
	} {
		run := runner.New(runner.Config{Workers: m.workers})
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := run.RunAll(cells); err != nil {
					b.Fatalf("RunAll: %v", err)
				}
			}
		})
		nsPass := r.NsPerOp()
		nsScenario := nsPass / int64(len(cells))
		report.Modes = append(report.Modes, simBenchMode{
			Name:            m.name,
			Workers:         m.workers,
			ScenariosPerSec: 1e9 / float64(nsScenario),
			NsPerScenario:   nsScenario,
			NsPerSimEvent:   float64(nsPass) / float64(report.Corpus.EventsPerPass),
			NsPerPass:       nsPass,
		})
	}
	report.SpeedupParallel = float64(report.Modes[0].NsPerPass) / float64(report.Modes[1].NsPerPass)

	if report.AllocsPerScenario, err = measureScenarioAllocs(&cells[0]); err != nil {
		return err
	}

	return emitReport(path, out, &report, func(out io.Writer) error {
		fmt.Fprintf(out, "sim benchmark (%d cells, %d simulated events/pass, GOMAXPROCS=%d, core=%s):\n",
			len(cells), report.Corpus.EventsPerPass, report.GoMaxProcs, report.Core)
		for _, m := range report.Modes {
			before := ""
			// Show the newest prior-generation figure for this mode as the
			// "before" column of the core progression.
			for _, h := range report.History {
				if h.Mode == m.Name && h.Core != report.Core {
					before = fmt.Sprintf("  (was %.0f ns/event on %s)", h.NsPerSimEvent, h.Core)
				}
			}
			fmt.Fprintf(out, "  %-11s %8.1f scenarios/sec  %6.0f ns/simulated-event%s\n",
				m.Name, m.ScenariosPerSec, m.NsPerSimEvent, before)
		}
		fmt.Fprintf(out, "  speedup: parallel-8 %.2fx (vs serial)\n", report.SpeedupParallel)
		fmt.Fprintf(out, "  steady-state allocs/scenario: %.1f\n", report.AllocsPerScenario)
		if report.Note != "" {
			fmt.Fprintf(out, "  note: %s\n", report.Note)
		}
		return nil
	})
}
