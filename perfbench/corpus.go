package main

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/runner"
)

// corpus is the Fig 8 experiment: six schedulers times three cluster sizes
// over the multi-job Yahoo workflows, dispatch on every completion. Plans
// are generated during setup, so a pass times the simulator and the
// policies alone. Its unit of service is one simulated event: a cell's
// latency sample is its thread CPU time divided by the events it processed.
type corpus struct {
	cells []runner.Cell
	woha  []bool // cells run by a WOHA policy
	tasks []int  // per cell
	run   *runner.Runner
	ref   uint64

	// Traced-phase sums: NextTask calls and time, by WOHA (1) or baseline
	// (0) cell, and simulated events.
	nextCalls, nextNs [2]int64
	events            int64
}

// corpusSubSeeds Yahoo draws make one pass: 46 workflows are too few for
// one draw's load, and so its per-task cost, to be typical.
const corpusSubSeeds = 8

func setupCorpus(seed int64) (bench, error) {
	c := &corpus{run: runner.New(runner.Config{Workers: 1})}
	for _, s := range subSeeds(seed, corpusSubSeeds) {
		cfg := experiments.DefaultFig8Config()
		cfg.Yahoo.Seed = s
		cells, err := experiments.Fig8Cells(cfg)
		if err != nil {
			return nil, err
		}
		tasks := 0
		for _, w := range cells[0].Flows {
			tasks += w.TotalTasks()
		}
		for i := range cells {
			c.woha = append(c.woha, cells[i].Plans != nil)
			c.tasks = append(c.tasks, tasks)
			if cells[i].Plans == nil {
				continue
			}
			plans, err := cells[i].Plans()
			if err != nil {
				return nil, fmt.Errorf("plans for %s: %w", cells[i].Name, err)
			}
			cells[i].Plans = func() ([]*plan.Plan, error) { return plans, nil }
		}
		c.cells = append(c.cells, cells...)
	}
	ps, err := c.pass(nil) // warm-up; its outputs are the reference
	if err != nil {
		return nil, err
	}
	c.ref = ps.sig
	return c, nil
}

func (c *corpus) pass(tr *tracer) (passStats, error) {
	ps := passStats{}
	h := fnv.New64a()
	var root *spanRef
	if tr != nil {
		root = tr.begin("corpus.pass", nil)
	}
	runtime.LockOSThread() // the runner's single worker is this goroutine
	defer runtime.UnlockOSThread()
	start := time.Now()
	for i := range c.cells {
		cell := c.cells[i]
		var pol *timedPolicy
		var span *spanRef
		if tr != nil {
			build := cell.Policy
			cell.Policy = func() cluster.Policy {
				pol = &timedPolicy{Policy: build()}
				return pol
			}
			span = tr.begin("runner.RunAll", root)
		}
		t0, c0 := time.Now(), threadTime()
		results, err := c.run.RunAll([]runner.Cell{cell})
		d, cpu := time.Since(t0), threadTime()-c0
		if err != nil {
			return ps, err
		}
		res := results[0]
		if tr != nil {
			pol.rollups(tr, span)
			tr.endAfter(span, root, d)
			k := 0
			if c.woha[i] {
				k = 1
			}
			c.nextCalls[k] += pol.nextCalls
			c.nextNs[k] += pol.nextNs
			c.events += int64(res.SimulatedEvents)
		}
		ps.lat = append(ps.lat, float64(cpu.Nanoseconds())/1e3/float64(max(1, res.SimulatedEvents)))
		n, failed := len(cell.Flows), 0
		if len(res.Workflows) != n || res.TasksStarted != c.tasks[i] {
			// Without failures or speculation every task starts exactly once.
			failed = n
		}
		fmt.Fprintf(h, "%d/%d/", res.SimulatedEvents, res.TasksStarted)
		for _, wr := range res.Workflows {
			if !wr.Met {
				ps.misses++
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			if failed < n && (wr.Rejected || wr.Finish <= wr.Release) {
				failed++ // neither met nor missed: never ran to completion
			}
		}
		ps.workflows += n
		ps.tasks += c.tasks[i]
		ps.failed += failed
	}
	ps.wall = time.Since(start)
	if tr != nil {
		tr.end(root, nil)
	}
	ps.sig = h.Sum64()
	if c.ref != 0 && ps.sig != c.ref {
		ps.failed = ps.workflows // outputs differ from the first pass
	}
	return ps, nil
}

func (c *corpus) layers(tr *tracer, passes int) map[string]float64 {
	run := tr.get("runner.RunAll")
	p := float64(passes)
	return map[string]float64{
		"cluster.events":         float64(c.events) / p,
		"cluster.ns_per_event":   mean(float64(run.self), float64(c.events)),
		"core.next_task_ns":      mean(float64(c.nextNs[1]), float64(c.nextCalls[1])),
		"core.calls":             float64(c.nextCalls[1]) / p,
		"scheduler.next_task_ns": mean(float64(c.nextNs[0]), float64(c.nextCalls[0])),
		"scheduler.calls":        float64(c.nextCalls[0]) / p,
	}
}
