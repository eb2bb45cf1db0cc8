package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/planner"
	"repro/internal/priority"
	"repro/internal/workflow"
	"repro/internal/workload"
)

// frontdoor is the submit path the corpus skips: the ten-fold Yahoo
// population, every plan generated cold by one planner, routed by the
// slack router over four members that each rule through their own
// feasibility admission controller and dispatch on Hadoop-1 heartbeats
// with noise, stragglers and speculation. Its unit of service is one
// submission: plan, every admission ruling and the route. Plans and rulings
// are timed on the thread's CPU clock; a route, far below a microsecond,
// on the wall clock.
type frontdoor struct {
	pops []*population
	ref  uint64

	// Traced-phase sums.
	searchIters, events, speculative int64
	runSelfNs                        int64 // federation.Run less policy, ruling and route time
	verdicts                         [3]int64
}

const (
	// frontdoorSubSeeds populations, each routed on its own, make one pass:
	// a single seed's submit costs depend too much on which workflows it
	// happened to draw.
	frontdoorSubSeeds = 6
	members           = 4
	memberSlots       = 40 // per slot type
	staleness         = 30 * time.Second
	hbInterval        = 3 * time.Second
	policySeed        = 1 // WOHA's queue PRNG and the members' noise
	memberScheduler   = "WOHA-LPF"
)

// population is one generated input set with the lookups the timed
// wrappers and the checks need.
type population struct {
	flows  []*workflow.Workflow
	index  map[*workflow.Workflow]int
	byName map[string]int
	tasks  []int
	total  int
}

func newPopulation(flows []*workflow.Workflow) *population {
	p := &population{flows: flows, index: map[*workflow.Workflow]int{}, byName: map[string]int{}}
	for i, w := range flows {
		p.index[w] = i
		p.byName[w.Name] = i
		p.tasks = append(p.tasks, w.TotalTasks())
		p.total += w.TotalTasks()
	}
	return p
}

// populationX10 is the Yahoo population scaled ten-fold over a 30-minute
// release window; its multi-job workflows are the frontdoor and heartbeat
// inputs.
func populationX10(seed int64) ([]*workflow.Workflow, error) {
	cfg := workload.DefaultYahooConfig()
	cfg.Seed = seed
	cfg.Workflows, cfg.Jobs, cfg.SingleJob = 10*cfg.Workflows, 10*cfg.Jobs, 10*cfg.SingleJob
	cfg.ReleaseWindow = 30 * time.Minute
	flows, err := workload.Yahoo(cfg)
	if err != nil {
		return nil, err
	}
	return workload.MultiJob(flows), nil
}

func setupFrontdoor(seed int64) (bench, error) {
	f := &frontdoor{}
	for _, s := range subSeeds(seed, frontdoorSubSeeds) {
		flows, err := populationX10(s)
		if err != nil {
			return nil, err
		}
		f.pops = append(f.pops, newPopulation(flows))
	}
	ps, err := f.pass(nil) // warm-up; its outputs are the reference
	if err != nil {
		return nil, err
	}
	f.ref = ps.sig
	return f, nil
}

func memberConfig() cluster.Config {
	return cluster.Config{
		Nodes:               memberSlots / 2,
		MapSlotsPerNode:     2,
		ReduceSlotsPerNode:  2,
		HeartbeatInterval:   hbInterval,
		Noise:               0.2,
		StragglerProb:       0.05,
		StragglerFactor:     3,
		SpeculativeSlowdown: 1.5,
		Seed:                policySeed,
	}
}

func (f *frontdoor) pass(tr *tracer) (passStats, error) {
	ps := passStats{}
	h := fnv.New64a()
	runtime.LockOSThread() // plans and rulings are timed on this thread's clock
	defer runtime.UnlockOSThread()
	start := time.Now()
	for _, pop := range f.pops {
		if err := f.submitAll(pop, tr, &ps, h); err != nil {
			return ps, err
		}
	}
	ps.wall = time.Since(start)
	ps.sig = h.Sum64()
	if f.ref != 0 && ps.sig != f.ref {
		ps.failed = ps.workflows // outputs differ from the first pass
	}
	return ps, nil
}

// submitAll carries one population through plan, admission, routing and
// the member simulations, adding its figures to ps and its outputs to h.
func (f *frontdoor) submitAll(pop *population, tr *tracer, ps *passStats, h hash.Hash64) error {
	n := len(pop.flows)
	cc := memberConfig()
	caps := plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}
	spec, err := experiments.SchedulerByName(memberScheduler)
	if err != nil {
		return err
	}

	pl := planner.New(planner.Config{Margin: experiments.PlanMargin})
	plans := make([]*plan.Plan, n)
	planCalls := make([]call, n)
	for i, w := range pop.flows {
		t0, c0 := time.Now(), threadTime()
		p, err := pl.Plan(w, caps, priority.LPF{})
		planCalls[i] = call{wf: i, start: t0, dur: threadTime() - c0}
		if err != nil {
			return fmt.Errorf("plan for %s: %w", w.Name, err)
		}
		plans[i] = p
		if tr != nil {
			f.searchIters += int64(p.SearchIters)
		}
	}

	var rulings []call
	sims := make([]*cluster.Simulator, members)
	pols := make([]*timedPolicy, members)
	for m := range sims {
		var pol cluster.Policy = spec.New(policySeed)
		if tr != nil {
			pols[m] = &timedPolicy{Policy: pol}
			pol = pols[m]
		}
		if sims[m], err = cluster.New(cc, pol, nil); err != nil {
			return err
		}
		ctrl, err := admission.New(admission.Config{Cluster: caps, Mode: admission.ModeFeasible})
		if err != nil {
			return err
		}
		sims[m].SetAdmission(&timedController{Controller: ctrl, index: pop.index, log: &rulings})
	}
	defer func() {
		for _, s := range sims {
			s.Release()
		}
	}()
	router := &timedRouter{Router: federation.SlackAware{}, index: pop.index}
	fed, err := federation.New(federation.Config{Router: router, SnapshotRefresh: staleness}, sims)
	if err != nil {
		return err
	}
	for i, w := range pop.flows {
		if err := fed.Submit(w, plans[i]); err != nil {
			return err
		}
	}
	var runSpan *spanRef
	if tr != nil {
		runSpan = tr.begin("federation.Run", nil)
	}
	t0 := time.Now()
	res, err := fed.Run()
	runDur := time.Since(t0)
	if err != nil {
		return err
	}

	// Submission latency: plan + every ruling + route, per workflow.
	submit := make([]time.Duration, n)
	final := make([]admission.Verdict, n)
	rulingsOf := make([]int, n)
	for _, c := range planCalls {
		submit[c.wf] += c.dur
	}
	for _, c := range rulings {
		submit[c.wf] += c.dur
		final[c.wf] = c.verdict
		rulingsOf[c.wf]++
	}
	for _, c := range router.log {
		submit[c.wf] += c.dur
	}
	for _, d := range submit {
		ps.lat = append(ps.lat, float64(d.Nanoseconds())/1e3)
	}

	// Output checks: every workflow is routed once and ends met, missed
	// or rejected, agreeing with its last ruling.
	ps.workflows += n
	ps.tasks += pop.total
	failed := make([]bool, n)
	if len(res.Workflows) != n || len(res.Routes) != n || len(router.log) != n {
		for i := range failed {
			failed[i] = true
		}
	}
	admittedTasks, started, events := 0, 0, 0
	for i, wr := range res.Workflows {
		idx, ok := pop.byName[res.Routes[i].Workflow]
		if !ok {
			return fmt.Errorf("route %d names unknown workflow %q", i, res.Routes[i].Workflow)
		}
		switch {
		case rulingsOf[idx] == 0:
			failed[idx] = true
		case wr.Rejected:
			failed[idx] = failed[idx] || final[idx] != admission.Reject
		case wr.Finish <= wr.Release || final[idx] != admission.Admit:
			failed[idx] = true // neither met, missed nor rejected
		default:
			admittedTasks += pop.tasks[idx]
		}
		if !wr.Met {
			ps.misses++
		}
		fmt.Fprintf(h, "%d:%t,", res.Routes[i].Cluster, wr.Met)
	}
	for _, cr := range res.Clusters {
		started += cr.TasksStarted
		events += cr.SimulatedEvents
	}
	// Every admitted task starts once, plus its speculative duplicates.
	speculative := started - admittedTasks
	fmt.Fprintf(h, "/%d/%d", events, started)
	for _, bad := range failed {
		if bad || speculative < 0 {
			ps.failed++
		}
	}

	if tr != nil {
		// federation.Run's own children are the members' policy callbacks;
		// rulings and routes hang off their submission's root instead, so
		// the simulator's self time is the Run span's self time less them.
		var policyNs, callNs int64
		for _, p := range pols {
			p.rollups(tr, runSpan)
			policyNs += p.nextNs + p.otherNs
		}
		tr.endAfter(runSpan, nil, runDur)
		roots := make([]*spanRef, n)
		for i, c := range planCalls {
			roots[i] = tr.beginAt("submit", nil, c.start)
			tr.child("planner.Plan", roots[i], c.start, c.dur)
		}
		for _, c := range rulings {
			tr.child("admission.Decide", roots[c.wf], c.start, c.dur)
			f.verdicts[c.verdict]++
			callNs += c.dur.Nanoseconds()
		}
		for _, c := range router.log {
			tr.child("federation.Route", roots[c.wf], c.start, c.dur)
			callNs += c.dur.Nanoseconds()
		}
		for _, r := range roots {
			tr.endComposite(r)
		}
		f.runSelfNs += runDur.Nanoseconds() - policyNs - callNs
		f.events += int64(events)
		f.speculative += int64(speculative)
	}
	return nil
}

func (f *frontdoor) layers(tr *tracer, passes int) map[string]float64 {
	p := float64(passes)
	plans, decide, route := tr.get("planner.Plan"), tr.get("admission.Decide"), tr.get("federation.Route")
	d := float64(decide.count)
	return map[string]float64{
		"cluster.events":               float64(f.events) / p,
		"cluster.ns_per_event":         mean(float64(f.runSelfNs), float64(f.events)),
		"cluster.speculative_attempts": float64(f.speculative) / p,
		"planner.plan_us_p50":          pct(plans, 50),
		"planner.plans":                float64(plans.count) / p,
		"planner.sims_per_plan":        mean(float64(f.searchIters), float64(plans.count)),
		"admission.decide_us_p50":      pct(decide, 50),
		"admission.decide_us_p99":      pct(decide, 99),
		"admission.decisions":          d / p,
		"admission.defers":             float64(f.verdicts[admission.Defer]) / p,
		"admission.rejects":            float64(f.verdicts[admission.Reject]) / p,
		"admission.useful_ratio":       mean(float64(f.verdicts[admission.Admit]+f.verdicts[admission.Reject]), d),
		"federation.route_ns":          mean(float64(route.total), float64(route.count)),
		"federation.routes":            float64(route.count) / p,
	}
}
