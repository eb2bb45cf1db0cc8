package plan

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/priority"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Caps is a two-pool resource cap: separate map and reduce slot budgets.
// Algorithm 1 in the paper treats the cluster as a single fungible slot pool;
// a real Hadoop-1 cluster types its slots, which makes single-pool plans
// systematically optimistic about reduce phases. GenerateTyped completes the
// algorithm for typed slots and is what the experiments use.
type Caps struct {
	Maps    int
	Reduces int
}

// Total returns the combined slot budget.
func (c Caps) Total() int { return c.Maps + c.Reduces }

// GenerateTyped is Generate with separate map and reduce slot pools: the
// simulated workflow's map tasks draw only from caps.Maps and reduce tasks
// only from caps.Reduces. The work-conserving scan lets a lower-priority
// job's reduces use idle reduce slots while a higher-priority job's maps
// saturate the map pool, exactly as the real JobTracker dispatch does.
// GenerateTyped is safe for concurrent use; simulator state is drawn from an
// internal pool.
func GenerateTyped(w *workflow.Workflow, caps Caps, policyName string, ranks []int) (*Plan, error) {
	if err := checkTyped(w, caps, ranks); err != nil {
		return nil, err
	}
	s := typedSimPool.Get().(*typedSim)
	defer typedSimPool.Put(s)
	return generateTypedWith(s, w, caps, policyName, ranks)
}

// TypedMakespan returns the makespan GenerateTyped reports for the same
// arguments, failing exactly when GenerateTyped fails, without assembling
// the plan: it runs the same pooled simulation but builds no Reqs and copies
// no ranks. Callers that only compare makespans — admission's feasibility
// probes — use it to keep each probe allocation-free.
func TypedMakespan(w *workflow.Workflow, caps Caps, ranks []int) (time.Duration, error) {
	if err := checkTyped(w, caps, ranks); err != nil {
		return 0, err
	}
	s := typedSimPool.Get().(*typedSim)
	defer typedSimPool.Put(s)
	s.reset(w, caps, ranks)
	return s.run()
}

// checkTyped validates GenerateTyped's and TypedMakespan's arguments.
func checkTyped(w *workflow.Workflow, caps Caps, ranks []int) error {
	if caps.Maps <= 0 || caps.Reduces < 0 || caps.Total() <= 0 {
		return fmt.Errorf("plan: bad typed caps %+v", caps)
	}
	if len(ranks) != len(w.Jobs) {
		return fmt.Errorf("plan: %d ranks for %d jobs", len(ranks), len(w.Jobs))
	}
	return nil
}

// generateTypedWith runs the typed simulation on an explicit simulator, so
// benchmarks can compare pooled against freshly allocated state.
func generateTypedWith(s *typedSim, w *workflow.Workflow, caps Caps, policyName string, ranks []int) (*Plan, error) {
	s.reset(w, caps, ranks)
	makespan, err := s.run()
	if err != nil {
		return nil, err
	}
	return assemble(w, policyName, ranks, caps.Total(), makespan, s.raw)
}

// TypedCapsFor maps a total slot budget onto typed caps in the cluster's
// map:reduce proportion, never letting either pool drop below one slot. It is
// the slice function GenerateCappedTyped bisects over, exported so external
// searchers probe exactly the same ladder of typed caps.
func TypedCapsFor(cluster Caps, total int) Caps {
	m := total * cluster.Maps / cluster.Total()
	if m < 1 {
		m = 1
	}
	r := total - m
	if r < 1 {
		r = 1
		if m > 1 {
			m = total - 1
		}
	}
	return Caps{Maps: m, Reduces: r}
}

// GenerateCappedTyped finds the smallest proportional slice of the cluster's
// typed slots under which the workflow still meets margin * deadline, and
// returns the plan at that slice. Fallback behaviour mirrors
// GenerateCappedMargin: if the margin target is unreachable the search
// retries against the real deadline, and a genuinely infeasible workflow
// gets the best-effort full plan.
func GenerateCappedTyped(w *workflow.Workflow, cluster Caps, pol priority.Policy, margin float64) (*Plan, error) {
	return GenerateCappedTypedWith(w, cluster, pol, margin, nil)
}

// GenerateCappedTypedWith is GenerateCappedTyped with an explicit cap
// searcher; a nil search uses SequentialSearch. Any conforming searcher (see
// CapSearcher) yields a byte-identical plan, so internal/planner can probe
// caps concurrently without changing results.
func GenerateCappedTypedWith(w *workflow.Workflow, cluster Caps, pol priority.Policy, margin float64, search CapSearcher) (*Plan, error) {
	if cluster.Maps <= 0 || cluster.Reduces <= 0 {
		return nil, fmt.Errorf("plan: bad cluster caps %+v", cluster)
	}
	if margin <= 0 || margin > 1 {
		return nil, fmt.Errorf("plan: margin %v, want (0, 1]", margin)
	}
	ranks, err := pol.Rank(w)
	if err != nil {
		return nil, fmt.Errorf("plan: ranking jobs: %w", err)
	}
	target := time.Duration(margin * float64(w.RelativeDeadline()))
	full, err := GenerateTyped(w, cluster, pol.Name(), ranks)
	if err != nil {
		return nil, err
	}
	if full.Makespan > target {
		if full.Makespan > w.RelativeDeadline() {
			return full, nil
		}
		target = w.RelativeDeadline()
	}
	if search == nil {
		search = SequentialSearch
	}
	best, probes, err := search(2, cluster.Total(), target, func(mid int) (*Plan, error) {
		return GenerateTyped(w, TypedCapsFor(cluster, mid), pol.Name(), ranks)
	})
	if err != nil {
		return nil, err
	}
	if best == nil {
		best = full
	}
	best.SearchIters = 1 + probes
	return best, nil
}

// typedSim simulates Algorithm 1 with two slot pools. Like genSim, all its
// buffers are retained across runs so pooled sims make repeated probes
// nearly allocation-free.
type typedSim struct {
	w     *workflow.Workflow
	ranks []int

	freeMaps, freeReds int
	remMaps, remReds   []int
	unmet              []int
	deps               depCSR

	// active holds ready jobs sorted by ascending rank (ranks are a
	// permutation, so the order is total and deterministic); scan holds the
	// per-event snapshot scanned while active mutates.
	active []workflow.JobID
	scan   []workflow.JobID

	events simtime.Queue[typedEvent]
	// batch receives each instant's events from DrainInstant, replacing the
	// former Pop+Peek loop with one heap drain per instant.
	batch []typedEvent
	raw   []rawReq
}

var typedSimPool = sync.Pool{New: func() any { return new(typedSim) }}

type typedEvent struct {
	freeMaps  int
	freeReds  int
	reduceOf  workflow.JobID // -1 if none
	completed workflow.JobID // -1 if none
}

// reset prepares s to simulate w under caps and ranks, reusing all retained
// buffers; the dependent adjacency is rebuilt only when w changes.
func (s *typedSim) reset(w *workflow.Workflow, caps Caps, ranks []int) {
	s.deps.build(w)
	s.w = w
	s.ranks = ranks
	s.freeMaps = caps.Maps
	s.freeReds = caps.Reduces
	nj := len(w.Jobs)
	s.remMaps = resize(s.remMaps, nj)
	s.remReds = resize(s.remReds, nj)
	s.unmet = resize(s.unmet, nj)
	s.active = s.active[:0]
	s.events.Reset()
	s.raw = s.raw[:0]
	for i := range w.Jobs {
		s.remMaps[i] = w.Jobs[i].Maps
		s.remReds[i] = w.Jobs[i].Reduces
		s.unmet[i] = len(w.Jobs[i].Prereqs)
	}
	for i := range w.Jobs {
		if s.unmet[i] == 0 {
			s.activate(workflow.JobID(i))
		}
	}
	// Kick the simulation with a zero event so scheduling happens at t=0.
	s.events.Push(simtime.Epoch, typedEvent{reduceOf: -1, completed: -1})
}

// activate inserts j into the rank-sorted active list.
func (s *typedSim) activate(j workflow.JobID) {
	r := s.ranks[j]
	i := sort.Search(len(s.active), func(k int) bool { return s.ranks[s.active[k]] > r })
	s.active = append(s.active, 0)
	copy(s.active[i+1:], s.active[i:])
	s.active[i] = j
}

// deactivate removes j from the active list.
func (s *typedSim) deactivate(j workflow.JobID) {
	r := s.ranks[j]
	i := sort.Search(len(s.active), func(k int) bool { return s.ranks[s.active[k]] >= r })
	copy(s.active[i:], s.active[i+1:])
	s.active = s.active[:len(s.active)-1]
}

// run simulates to completion and returns the makespan; the scheduling
// requests are left in s.raw for assemble. It fails when a job is never
// fully scheduled or the requests do not account for every task.
func (s *typedSim) run() (time.Duration, error) {
	var end simtime.Time
	for s.events.Len() > 0 {
		// One heap drain per instant; apply never pushes, so the batch is
		// the complete instant.
		s.batch = s.batch[:0]
		t, _ := s.events.DrainInstant(&s.batch)
		for _, e := range s.batch {
			s.apply(e)
		}

		// Work-conserving scan in rank order: each active job takes what
		// its current phase can use from the matching pool. Scan a
		// snapshot because exhausted jobs leave the active list mid-scan.
		s.scan = append(s.scan[:0], s.active...)
		for _, j := range s.scan {
			job := &s.w.Jobs[j]
			if s.remMaps[j] > 0 {
				k := min(s.remMaps[j], s.freeMaps)
				if k == 0 {
					continue
				}
				s.raw = append(s.raw, rawReq{at: t, count: k})
				s.freeMaps -= k
				s.remMaps[j] -= k
				done := t.Add(job.MapTime)
				end = simtime.MaxOf(end, done)
				if s.remMaps[j] == 0 {
					s.deactivate(j)
					if s.remReds[j] > 0 {
						s.events.Push(done, typedEvent{freeMaps: k, reduceOf: j, completed: -1})
					} else {
						s.events.Push(done, typedEvent{freeMaps: k, reduceOf: -1, completed: j})
					}
				} else {
					s.events.Push(done, typedEvent{freeMaps: k, reduceOf: -1, completed: -1})
				}
			} else if s.remReds[j] > 0 {
				k := min(s.remReds[j], s.freeReds)
				if k == 0 {
					continue
				}
				s.raw = append(s.raw, rawReq{at: t, count: k})
				s.freeReds -= k
				s.remReds[j] -= k
				done := t.Add(job.ReduceTime)
				end = simtime.MaxOf(end, done)
				if s.remReds[j] == 0 {
					s.deactivate(j)
					s.events.Push(done, typedEvent{freeReds: k, reduceOf: -1, completed: j})
				} else {
					s.events.Push(done, typedEvent{freeReds: k, reduceOf: -1, completed: -1})
				}
			}
		}
	}
	for i := range s.w.Jobs {
		if s.remMaps[i] > 0 || s.remReds[i] > 0 {
			return 0, fmt.Errorf("plan: job %q never fully scheduled (typed sim internal error)", s.w.Jobs[i].Name)
		}
	}
	cum := 0
	for _, r := range s.raw {
		cum += r.count
	}
	if total := s.w.TotalTasks(); cum != total {
		return 0, fmt.Errorf("plan: simulation scheduled %d tasks, workflow has %d", cum, total)
	}
	return end.Duration(), nil
}

func (s *typedSim) apply(e typedEvent) {
	s.freeMaps += e.freeMaps
	s.freeReds += e.freeReds
	if e.reduceOf >= 0 {
		s.activate(e.reduceOf)
	}
	if e.completed >= 0 {
		for _, d := range s.deps.of(e.completed) {
			s.unmet[d]--
			if s.unmet[d] == 0 {
				s.activate(d)
			}
		}
	}
}
