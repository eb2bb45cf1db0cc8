package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// heartbeat is the master-side cost the paper's design keeps small: the
// live JobTracker (default shards) on the paper's cluster shape, serving
// WOHA-LPF with client-side plans over the ten-fold population, all
// released at once with their relative deadlines kept. The load is a closed
// loop: each tracker goroutine owns a fixed set of nodes and beats them in
// turn, and every task a beat assigns completes on its node's next beat —
// a TaskTracker waits for its reply before it beats again. A pass ends when
// every task has completed. Its unit of service is one heartbeat.
type heartbeat struct {
	pops []*hbPopulation
	spec experiments.SchedulerSpec

	// Traced-phase sums.
	beats, idle, assigned, policyNs int64
}

// hbPopulation is one draw's workflows, released at once, with their plans.
type hbPopulation struct {
	*population
	plans []*plan.Plan
}

const (
	// heartbeatSubSeeds populations are served one after another in a pass.
	heartbeatSubSeeds = 4
	hbNodes           = 80
	hbTrackers        = 2 // tracker goroutines; each owns hbNodes/hbTrackers nodes
)

func hbConfig() live.Config {
	return live.Config{
		Nodes:              hbNodes,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		HeartbeatInterval:  hbInterval, // unused: beats are delivered directly
		TimeScale:          1e-3,
	}
}

func setupHeartbeat(seed int64) (bench, error) {
	spec, err := experiments.SchedulerByName(memberScheduler)
	if err != nil {
		return nil, err
	}
	h := &heartbeat{spec: spec}
	cfg := hbConfig()
	caps := plan.Caps{Maps: cfg.Nodes * cfg.MapSlotsPerNode, Reduces: cfg.Nodes * cfg.ReduceSlotsPerNode}
	pl := planner.New(planner.Config{Margin: experiments.PlanMargin})
	for _, s := range subSeeds(seed, heartbeatSubSeeds) {
		pop, err := populationX10(s)
		if err != nil {
			return nil, err
		}
		var flows []*workflow.Workflow
		for _, w := range pop {
			c := w.Clone()
			c.Release, c.Deadline = simtime.Epoch, simtime.Epoch.Add(w.RelativeDeadline())
			flows = append(flows, c)
		}
		p := &hbPopulation{population: newPopulation(flows)}
		if p.plans, err = pl.PlanAll(flows, caps, priority.LPF{}); err != nil {
			return nil, err
		}
		h.pops = append(h.pops, p)
	}
	if _, err := h.pass(nil); err != nil { // warm-up
		return nil, err
	}
	return h, nil
}

// beatRec is one timed heartbeat.
type beatRec struct {
	start    time.Time
	dur      time.Duration
	assigned int
}

// tracker is one goroutine's share of the closed loop.
type tracker struct {
	nodes      []int
	beats      []beatRec
	assigned   []int32 // per workflow
	completed  []int32 // per workflow
	dup, stray int     // TaskIDs seen twice, or outside the task range
	late       int     // assignments after the last completion
}

func (h *heartbeat) pass(tr *tracer) (passStats, error) {
	ps := passStats{misses: -1}
	for _, p := range h.pops {
		if err := h.serve(p, tr, &ps); err != nil {
			return ps, err
		}
	}
	return ps, nil
}

// serve runs one population through a fresh live cluster, adding its
// figures to ps.
func (h *heartbeat) serve(p *hbPopulation, tr *tracer, ps *passStats) error {
	var pol cluster.Policy = h.spec.New(policySeed)
	var tp *timedPolicy
	if tr != nil {
		tp = &timedPolicy{Policy: pol}
		pol = tp
	}
	c, err := live.New(hbConfig(), pol)
	if err != nil {
		return err
	}
	for i, w := range p.flows {
		if err := c.Submit(w, p.plans[i]); err != nil {
			return err
		}
	}
	// seen[s] marks TaskID sequence s as assigned; the tracker numbers
	// tasks 1..total, so each must appear exactly once.
	seen := make([]atomic.Bool, p.total+1)
	var done atomic.Int64
	trackers := make([]*tracker, hbTrackers)
	var wg sync.WaitGroup
	start := time.Now()
	for g := range trackers {
		t := &tracker{assigned: make([]int32, len(p.flows)), completed: make([]int32, len(p.flows))}
		for n := g; n < hbNodes; n += hbTrackers {
			t.nodes = append(t.nodes, n)
		}
		trackers[g] = t
		wg.Add(1)
		go func() {
			defer wg.Done()
			drive(c, t, p.total, seen, &done)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ps.wall += wall

	// Output checks: every task assigned once and completed once, nothing
	// assigned after the last completion.
	ps.workflows += len(p.flows)
	ps.tasks += p.total
	bad, failed := false, 0
	for _, t := range trackers {
		bad = bad || t.dup > 0 || t.stray > 0 || t.late > 0
	}
	for wf := range p.flows {
		var a, comp int32
		for _, t := range trackers {
			a += t.assigned[wf]
			comp += t.completed[wf]
		}
		if !bad && (int(a) != p.tasks[wf] || int(comp) != p.tasks[wf]) {
			failed++
		}
	}
	for _, t := range trackers {
		for _, b := range t.beats {
			ps.lat = append(ps.lat, float64(b.dur.Nanoseconds())/1e3)
		}
	}
	if bad {
		failed = len(p.flows)
	}
	ps.failed += failed

	if tr != nil {
		root := tr.beginAt("heartbeat.pass", nil, start)
		for _, t := range trackers {
			for _, b := range t.beats {
				tr.child("live.DeliverHeartbeat", root, b.start, b.dur)
				h.beats++
				h.assigned += int64(b.assigned)
				if b.assigned == 0 {
					h.idle++
				}
			}
		}
		// Policy callbacks run inside beats under the tracker's locks; the
		// wrapper cannot tell which goroutine's beat made them, so they are
		// one rollup per pass.
		tp.rollups(tr, root)
		h.policyNs += tp.nextNs + tp.otherNs
		tr.endAfter(root, nil, wall)
	}
	return nil
}

// drive beats t's nodes in turn until every task of the pass has completed,
// then beats each once more to check nothing is left to assign.
func drive(c *live.Cluster, t *tracker, total int, seen []atomic.Bool, done *atomic.Int64) {
	held := make([][]live.TaskID, len(t.nodes))
	beat := func(k int) int {
		hb := live.Heartbeat{Tracker: t.nodes[k], FreeMaps: 2, FreeReds: 1, Completed: held[k]}
		t0 := time.Now()
		out := c.DeliverHeartbeat(hb)
		d := time.Since(t0)
		t.beats = append(t.beats, beatRec{start: t0, dur: d, assigned: len(out)})
		for _, id := range held[k] {
			t.completed[id.Workflow]++
		}
		done.Add(int64(len(held[k])))
		held[k] = held[k][:0]
		for _, a := range out {
			switch s := a.ID.Seq; {
			case s < 1 || s >= len(seen) || a.ID.Workflow < 0 || a.ID.Workflow >= len(t.assigned):
				t.stray++
				continue
			case seen[s].Swap(true):
				t.dup++
			}
			t.assigned[a.ID.Workflow]++
			held[k] = append(held[k], a.ID)
		}
		return len(out)
	}
	for done.Load() < int64(total) {
		for k := range t.nodes {
			beat(k)
		}
	}
	for k := range t.nodes {
		if beat(k) > 0 {
			t.late++
		}
	}
}

func (h *heartbeat) layers(tr *tracer, passes int) map[string]float64 {
	b := float64(h.beats)
	return map[string]float64{
		"live.beats":                b / float64(passes),
		"live.assignments_per_beat": mean(float64(h.assigned), b),
		"live.idle_beat_ratio":      mean(float64(h.idle), b),
		"live.policy_ns":            mean(float64(h.policyNs), b),
	}
}
