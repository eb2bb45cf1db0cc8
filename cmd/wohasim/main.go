// Command wohasim runs one workload under a chosen workflow scheduler and
// reports per-workflow outcomes.
//
// Every run follows the paper's submission pipeline: the client plans each
// workflow once, at one member cluster's slot caps, and hands workflow and
// plan to the master. The flags select the master (the engine):
//
//	(default)       the discrete-event simulator with -clusters members
//	                (one member runs alone; more run behind a -router)
//	-replicas N>1   the simulator replayed once per seed
//	-live           the concurrent goroutine mini-Hadoop
//
// A flag the chosen engine does not honour is an error, never ignored.
//
// Workloads:
//
//	-workload fig7     the paper's 33-job demo topology x3 (the Fig 11 setup)
//	-workload yahoo    the 61-workflow Yahoo-derived population (Fig 8 setup)
//	-workload x.xml    one workflow from an XML configuration file
//
// Example:
//
//	wohasim -workload fig7 -scheduler WOHA-LPF -nodes 32
//	wohasim -workload my-pipeline.xml -scheduler EDF -timeline out.csv
//	wohasim -workload fig7 -trace-out trace.json   # Perfetto trace of Fig 11
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	woha "repro"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/workload"
)

func main() {
	if err := runMain(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "wohasim:", err)
		os.Exit(1)
	}
}

// runMain parses args into a run spec, loads its workload, and runs it,
// writing the report to stdout; flag diagnostics go to stderr.
func runMain(args []string, stdout, stderr io.Writer) error {
	s, err := parseSpec(args, stderr)
	if err != nil {
		return err
	}
	flows, err := buildWorkload(s.workload)
	if err != nil {
		return err
	}
	return s.execute(flows, stdout)
}

// engine names the master a run spec drives.
type engine string

const (
	engSim      engine = "simulator"  // one simulator member, fed in input order
	engFed      engine = "federation" // the simulator with -clusters > 1 members
	engReplicas engine = "replicas"   // the seed sweep through woha.RunSeeds
	engLive     engine = "live"       // the goroutine mini-Hadoop
)

// honours lists, for every flag that not all engines read, the engines that
// do. parseSpec refuses an explicitly set flag whose row omits the chosen
// engine, so no flag is silently dropped. The capture flags need one run on
// one member: events carry member-local workflow indices.
var honours = map[string][]engine{
	"heartbeat":        {engSim, engFed, engReplicas},
	"submitter":        {engSim, engFed, engReplicas},
	"noise":            {engSim, engFed, engReplicas},
	"replicas":         {engSim, engFed, engReplicas},
	"replica-workers":  {engReplicas},
	"clusters":         {engSim, engFed},
	"router":           {engFed},
	"snapshot-refresh": {engFed},
	"admission":        {engSim, engFed, engLive}, // controllers are stateful per run
	"tenants":          {engSim, engFed, engLive},
	"timeline":         {engSim},
	"postmortem":       {engSim, engLive},
	"trace-out":        {engSim, engLive},
	"time-scale":       {engLive},
	"shards":           {engLive},
}

// runSpec is one validated wohasim invocation.
type runSpec struct {
	engine      engine
	workload    string
	sched       experiments.SchedulerSpec
	member      woha.ClusterConfig // every member's cluster; Seed seeds the policy too
	members     int
	router      string
	refresh     time.Duration
	replicas    int
	replicaWork int
	timeScale   float64
	shards      int
	metricsAddr string
	health      time.Duration
	planWorkers int
	planCache   int
	admission   string
	tenants     map[string]woha.AdmissionTenant
	tenantNames []string // spec order, for round-robin assignment
	timeline    string
	postmortem  string
	traceOut    string
}

// parseSpec parses and validates the command line. Malformed flags and -h
// exit the process, as flag.Parse does; a well-formed command line the
// engines cannot run is returned as an error.
func parseSpec(args []string, stderr io.Writer) (*runSpec, error) {
	var (
		s          runSpec
		schedName  string
		tenantSpec string
		liveMode   bool
	)
	fs := flag.NewFlagSet("wohasim", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&s.workload, "workload", "fig7", "fig7, yahoo, or a workflow XML file")
	fs.StringVar(&schedName, "scheduler", "WOHA-LPF", "EDF, FIFO, Fair, WOHA-LPF, WOHA-HLF, or WOHA-MPF")
	fs.IntVar(&s.member.Nodes, "nodes", 32, "number of TaskTrackers (per member cluster)")
	fs.IntVar(&s.member.MapSlotsPerNode, "map-slots", 2, "map slots per node")
	fs.IntVar(&s.member.ReduceSlotsPerNode, "reduce-slots", 1, "reduce slots per node")
	fs.DurationVar(&s.member.HeartbeatInterval, "heartbeat", 0, "heartbeat interval (0 = instant dispatch)")
	fs.DurationVar(&s.member.SubmitterOverhead, "submitter", 0, "submitter-job overhead per wjob activation")
	fs.Float64Var(&s.member.Noise, "noise", 0, "task duration noise fraction in [0,1)")
	fs.Int64Var(&s.member.Seed, "seed", 1, "PRNG seed (cluster noise and the scheduler's queue)")
	fs.StringVar(&s.timeline, "timeline", "", "write map-slot allocation CSV to this file")
	fs.BoolVar(&liveMode, "live", false, "run on the concurrent live mini-Hadoop instead of the discrete-event simulator")
	fs.Float64Var(&s.timeScale, "time-scale", 0.001, "live mode: wall seconds per virtual second")
	fs.IntVar(&s.shards, "shards", 0, "live mode: JobTracker workflow-state shards (0 = one per core)")
	fs.StringVar(&s.metricsAddr, "metrics-addr", "", "serve the introspection plane (/metrics, /statusz, /debug/pprof) on this address during the run (e.g. :8080; :0 picks a free port) and print a final scrape")
	fs.StringVar(&s.postmortem, "postmortem", "", "write a miss root-cause report (JSON) to this file after the run and print a text summary")
	fs.StringVar(&s.traceOut, "trace-out", "", "write the run's event stream as Chrome trace-event JSON to this file (open in ui.perfetto.dev)")
	fs.DurationVar(&s.health, "health-interval", 30*time.Second, "virtual-time interval between deadline-health snapshots when instrumentation is active (0 disables)")
	fs.IntVar(&s.planWorkers, "plan-workers", 1, "concurrent Algorithm 1 probes per plan search (0 = one per core)")
	fs.IntVar(&s.planCache, "plan-cache", 0, "structural plan cache capacity (0 = disabled)")
	fs.IntVar(&s.replicas, "replicas", 1, "replay the run once per seed (seed, seed+1, ...) and report per-seed outcomes")
	fs.IntVar(&s.replicaWork, "replica-workers", 0, "concurrent replicas (0 = one per core, 1 = serial; results identical either way)")
	fs.StringVar(&s.admission, "admission", "", "front-door admission controller per member: always, feasible, or token-bucket (empty = no front door, the seed behaviour)")
	fs.StringVar(&tenantSpec, "tenants", "", "per-tenant admission policies, e.g. \"t1:rate=6,burst=2,quota=0.5,tier=0;t2:quota=0.25,tier=1\"; workflows are assigned tenants round-robin")
	fs.IntVar(&s.members, "clusters", 1, "member clusters, each with -nodes nodes; more than one federates them behind -router")
	fs.StringVar(&s.router, "router", "slack", "federation workflow router: round-robin, least-loaded, or slack")
	fs.DurationVar(&s.refresh, "snapshot-refresh", 0, "federation: oldest member load snapshot the router may decide on (0 = refreshed before every decision)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	switch {
	case liveMode:
		s.engine = engLive
	case s.replicas > 1:
		s.engine = engReplicas
	case s.members > 1:
		s.engine = engFed
	default:
		s.engine = engSim
	}
	var refused []string
	fs.Visit(func(f *flag.Flag) {
		if rows, ok := honours[f.Name]; ok && !slices.Contains(rows, s.engine) {
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		return nil, fmt.Errorf("the %s engine does not honour %s", s.engine, strings.Join(refused, ", "))
	}

	if s.members < 1 {
		return nil, fmt.Errorf("-clusters must be >= 1")
	}
	var err error
	if s.sched, err = experiments.SchedulerByName(schedName); err != nil {
		return nil, err
	}
	if s.tenants, s.tenantNames, err = parseTenants(tenantSpec); err != nil {
		return nil, err
	}
	switch {
	case tenantSpec != "" && s.admission == "":
		return nil, fmt.Errorf("-tenants requires -admission feasible or token-bucket")
	case len(s.tenantNames) > 0 && s.admission == woha.AdmissionModeAlways:
		return nil, fmt.Errorf("-tenants has no effect under -admission always")
	}
	return &s, nil
}

// execute runs the spec on flows and writes the report to out.
func (s *runSpec) execute(flows []*woha.Workflow, out io.Writer) error {
	var (
		ins  *woha.Instrumentation
		ring *woha.EventRing
		srv  *woha.IntrospectionServer
	)
	capture := s.postmortem != "" || s.traceOut != ""
	if s.metricsAddr != "" || capture {
		var reg *woha.Metrics
		if s.metricsAddr != "" {
			reg = woha.NewMetrics()
		}
		// Box the ring into the sink interface only when it exists: a
		// typed-nil EventSink would defeat the emit path's nil check.
		var sink woha.EventSink
		if capture {
			ring = woha.NewEventRing(1 << 20)
			sink = ring
		}
		ins = woha.NewInstrumentation(reg, sink)
		if s.health > 0 {
			ins.EnableHealth(woha.HealthConfig{Interval: s.health})
		}
	}
	if s.metricsAddr != "" {
		var err error
		if srv, err = woha.ServeIntrospection(s.metricsAddr, ins); err != nil {
			return err
		}
		fmt.Fprintf(out, "introspection: serving http://%s/metrics, /statusz, /debug/pprof/\n", srv.Addr())
	}
	if err := s.runEngine(flows, ins, ring, out); err != nil {
		if srv != nil {
			srv.Shutdown(context.Background())
		}
		return err
	}
	return stopIntrospection(srv, out)
}

// runEngine plans the workload, runs it on the spec's engine, and renders
// the captured event stream.
func (s *runSpec) runEngine(flows []*woha.Workflow, ins *woha.Instrumentation, ring *woha.EventRing, out io.Writer) error {
	assignTenants(flows, s.tenantNames)
	// One coalescing plan service per run: each distinct (shape, caps,
	// policy) key costs one simulation however many seeds replay it.
	pl := woha.NewPlanner(
		woha.WithPlannerWorkers(s.planWorkers),
		woha.WithPlanCache(s.planCache),
		woha.WithPlanMargin(experiments.PlanMargin),
		woha.WithInstrumentation(ins),
	)
	if s.engine == engReplicas {
		return s.sweepSeeds(flows, ins, pl, out)
	}
	plans, err := s.plan(flows, pl)
	if err != nil {
		return err
	}
	switch s.engine {
	case engLive:
		err = s.liveRun(flows, plans, ins, out)
	case engFed:
		err = s.federate(flows, plans, ins, out)
	default:
		err = s.simulate(flows, plans, ins, out)
	}
	if err != nil || ring == nil {
		return err
	}
	return s.writeCaptures(ring.Events(), flows, plans, out)
}

// plan generates every workflow's plan at one member's caps through the
// shared planner, in input order; nil under the plan-less baselines. These
// plans feed both submission and the postmortem specs.
func (s *runSpec) plan(flows []*woha.Workflow, pl *woha.Planner) ([]*woha.Plan, error) {
	if !s.sched.IsWOHA() {
		return nil, nil
	}
	return pl.PlanAll(flows, s.caps(), s.sched.Priority)
}

// caps is one member's slot capacity.
func (s *runSpec) caps() plan.Caps {
	return plan.Caps{Maps: s.member.MapSlots(), Reduces: s.member.ReduceSlots()}
}

// policy builds the spec's scheduler with WOHA's queue statistics on ins,
// wrapped with the scheduler decision metrics.
func (s *runSpec) policy(ins *woha.Instrumentation) woha.Policy {
	return cluster.InstrumentPolicy(s.sched.NewObserved(s.member.Seed, ins), ins)
}

// controller builds one member's front door from -admission and -tenants,
// sized to the member's caps; nil without -admission.
func (s *runSpec) controller(ins *woha.Instrumentation) (woha.AdmissionController, error) {
	switch s.admission {
	case "":
		return nil, nil
	case woha.AdmissionModeAlways:
		return woha.AlwaysAdmit(ins), nil
	}
	return woha.NewAdmission(woha.AdmissionConfig{
		Cluster: s.caps(),
		Mode:    s.admission,
		Tenants: s.tenants,
		Obs:     ins,
	})
}

// newMember builds one simulator member; every engine's members are built
// here alike: the instrumented policy, the run's instrumentation, and a
// front door of its own. observer may be nil.
func (s *runSpec) newMember(ins *woha.Instrumentation, observer woha.Observer) (*cluster.Simulator, woha.AdmissionController, error) {
	adm, err := s.controller(ins)
	if err != nil {
		return nil, nil, err
	}
	sim, err := cluster.New(s.member, s.policy(ins), observer)
	if err != nil {
		return nil, nil, err
	}
	sim.SetInstrumentation(ins)
	sim.SetAdmission(adm)
	return sim, adm, nil
}

// submitAll hands each workflow and its plan to submit in input order,
// recording every plan as generated at its workflow's release.
func submitAll(flows []*woha.Workflow, plans []*woha.Plan, ins *woha.Instrumentation, submit func(*woha.Workflow, *woha.Plan) error) error {
	for i, w := range flows {
		var p *woha.Plan
		if plans != nil {
			p = plans[i]
			ins.PlanGenerated(w.Release, w.Name, p.SearchIters)
		}
		if err := submit(w, p); err != nil {
			return err
		}
	}
	return nil
}

// simulate runs the workload on one member. It submits in input order, which
// is what indexes the workflows; EDF, Fair and FIFO break ties by that
// index, so this is not a federation of one (which indexes in release
// order).
func (s *runSpec) simulate(flows []*woha.Workflow, plans []*woha.Plan, ins *woha.Instrumentation, out io.Writer) error {
	var (
		tl       *woha.Timeline
		observer woha.Observer
	)
	if s.timeline != "" {
		tl = woha.NewTimeline()
		observer = tl
	}
	sim, adm, err := s.newMember(ins, observer)
	if err != nil {
		return err
	}
	defer sim.Release()
	if err := submitAll(flows, plans, ins, sim.Submit); err != nil {
		return err
	}
	res, err := sim.Run()
	if err != nil {
		return err
	}

	cfg := s.member
	fmt.Fprintf(out, "scheduler %s on %d nodes (%d map + %d reduce slots), %d workflows, %d tasks\n",
		res.Policy, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), len(res.Workflows), res.TasksStarted)
	fmt.Fprintf(out, "%-12s %10s %10s %10s %10s  %s\n", "workflow", "release", "deadline", "finish", "workspan", "met")
	for _, w := range res.Workflows {
		fmt.Fprintf(out, "%-12s %10.0fs %10.0fs %10.0fs %10.0fs  %s\n",
			w.Name, w.Release.Seconds(), w.Deadline.Seconds(), w.Finish.Seconds(), w.Workspan.Seconds(),
			outcomeLabel(w, "yes"))
	}
	fmt.Fprintf(out, "misses %d/%d (%.1f%%), max tardiness %v, total tardiness %v, utilization %.3f, makespan %v\n",
		res.DeadlineMisses(), len(res.Workflows), 100*res.MissRatio(),
		res.MaxTardiness().Round(time.Second), res.TotalTardiness().Round(time.Second),
		res.Utilization(), res.Makespan.Duration().Round(time.Second))
	printAdmissionSummary(out, "", adm, res.Workflows)

	if tl != nil {
		if err := writeFile(s.timeline, func(w io.Writer) error { return tl.WriteCSV(w, woha.MapSlot) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "map-slot timeline written to %s\n", s.timeline)
	}
	return nil
}

// federate runs the workload across the spec's members behind one
// shared virtual clock: the router assigns every workflow to a member at
// its release instant, deciding on load snapshots at most -snapshot-refresh
// old.
func (s *runSpec) federate(flows []*woha.Workflow, plans []*woha.Plan, ins *woha.Instrumentation, out io.Writer) error {
	router, err := federation.NewRouter(s.router)
	if err != nil {
		return err
	}
	sims := make([]*cluster.Simulator, s.members)
	adms := make([]woha.AdmissionController, s.members)
	for i := range sims {
		if sims[i], adms[i], err = s.newMember(ins, nil); err != nil {
			return err
		}
		defer sims[i].Release()
	}
	fed, err := federation.New(federation.Config{Router: router, SnapshotRefresh: s.refresh, Obs: ins}, sims)
	if err != nil {
		return err
	}
	if err := submitAll(flows, plans, ins, fed.Submit); err != nil {
		return err
	}
	res, err := fed.Run()
	if err != nil {
		return err
	}

	cfg := s.member
	fmt.Fprintf(out, "federated %s over %d clusters x %d nodes (%d map + %d reduce slots each), router %s, snapshot refresh %v\n",
		s.sched.Name, s.members, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), res.Router, res.SnapshotRefresh)
	fmt.Fprintf(out, "%-12s %8s %10s %10s %10s %14s  %s\n",
		"workflow", "cluster", "release", "deadline", "finish", "snapshot-age", "met")
	var maxAge time.Duration
	for i, w := range res.Workflows {
		rt := res.Routes[i]
		maxAge = max(maxAge, rt.SnapshotAge)
		fmt.Fprintf(out, "%-12s %8d %9.0fs %9.0fs %9.0fs %14v  %s\n",
			w.Name, rt.Cluster, w.Release.Seconds(), w.Deadline.Seconds(), w.Finish.Seconds(),
			rt.SnapshotAge.Round(time.Millisecond), outcomeLabel(w, "yes"))
	}
	fmt.Fprintf(out, "routed per cluster %v, misses %d/%d (%.1f%%), max snapshot age %v\n",
		res.RoutedPerCluster(), res.DeadlineMisses(), len(res.Workflows), 100*res.MissRatio(),
		maxAge.Round(time.Millisecond))
	for i, cr := range res.Clusters {
		fmt.Fprintf(out, "  cluster %d: %d workflows, %d tasks, makespan %v, utilization %.3f\n",
			i, len(cr.Workflows), cr.TasksStarted, cr.Makespan.Duration().Round(time.Second), cr.Utilization())
		printAdmissionSummary(out, "    ", adms[i], cr.Workflows)
	}
	return nil
}

// sweepSeeds replays the workload once per seed (-seed, -seed+1, ...)
// through the facade's parallel sweep and reports the per-seed spread.
func (s *runSpec) sweepSeeds(flows []*woha.Workflow, ins *woha.Instrumentation, pl *woha.Planner, out io.Writer) error {
	cfg := s.member
	seeds := make([]int64, s.replicas)
	for i := range seeds {
		seeds[i] = cfg.Seed + int64(i)
	}
	results, err := woha.RunSeeds(cfg, woha.Scheduler(s.sched.Name), flows, seeds, s.replicaWork,
		woha.WithInstrumentation(ins), woha.WithPlanner(pl))
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "scheduler %s on %d nodes (%d map + %d reduce slots), %d workflows, %d replicas\n",
		s.sched.Name, cfg.Nodes, cfg.MapSlots(), cfg.ReduceSlots(), len(flows), s.replicas)
	fmt.Fprintf(out, "%-8s %8s %14s %14s %12s %10s\n", "seed", "misses", "max-tard", "total-tard", "makespan", "util")
	var missSum int
	var tardSum time.Duration
	for i, res := range results {
		missSum += res.DeadlineMisses()
		tardSum += res.TotalTardiness()
		fmt.Fprintf(out, "%-8d %5d/%-2d %13.0fs %13.0fs %11.0fs %10.3f\n",
			seeds[i], res.DeadlineMisses(), len(res.Workflows),
			res.MaxTardiness().Seconds(), res.TotalTardiness().Seconds(),
			res.Makespan.Duration().Seconds(), res.Utilization())
	}
	fmt.Fprintf(out, "mean: %.2f misses, %.0fs total tardiness over %d seeds\n",
		float64(missSum)/float64(s.replicas), tardSum.Seconds()/float64(s.replicas), s.replicas)
	return nil
}

// liveRun runs the workload on the concurrent mini-Hadoop, one member with
// 5 ms wall heartbeats.
func (s *runSpec) liveRun(flows []*woha.Workflow, plans []*woha.Plan, ins *woha.Instrumentation, out io.Writer) error {
	adm, err := s.controller(ins)
	if err != nil {
		return err
	}
	cfg := live.Config{
		Nodes:              s.member.Nodes,
		MapSlotsPerNode:    s.member.MapSlotsPerNode,
		ReduceSlotsPerNode: s.member.ReduceSlotsPerNode,
		HeartbeatInterval:  5 * time.Millisecond,
		TimeScale:          s.timeScale,
		Shards:             s.shards,
		Obs:                ins,
		Admission:          adm,
	}
	c, err := live.New(cfg, s.policy(ins))
	if err != nil {
		return err
	}
	if err := submitAll(flows, plans, ins, c.Submit); err != nil {
		return err
	}
	start := time.Now()
	res, err := c.Run(context.Background())
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "live run under %s: %d workflows, %d tasks, wall time %v\n",
		res.Policy, len(res.Workflows), res.TasksStarted, time.Since(start).Round(time.Millisecond))
	virtualHB := time.Duration(float64(cfg.HeartbeatInterval) / s.timeScale)
	fmt.Fprintf(out, "  (5ms wall heartbeats = %v of virtual dispatch latency at this time scale;\n"+
		"   pick -time-scale so that is ~3s to emulate Hadoop's heartbeat period)\n",
		virtualHB.Round(time.Second))
	for _, w := range res.Workflows {
		fmt.Fprintf(out, "  %-12s workspan %10v (virtual)  %s\n", w.Name, w.Workspan.Round(time.Second), outcomeLabel(w, "met"))
	}
	printAdmissionSummary(out, "", adm, res.Workflows)
	return nil
}

// writeCaptures renders the captured event stream: the miss root-cause
// report (JSON to -postmortem, text summary to out) and the Perfetto trace.
func (s *runSpec) writeCaptures(events []woha.ObsEvent, flows []*woha.Workflow, plans []*woha.Plan, out io.Writer) error {
	if s.postmortem != "" {
		specs := make([]woha.PostmortemSpec, len(flows))
		for i, w := range flows {
			specs[i] = woha.PostmortemSpec{Workflow: i, Spec: w}
			if plans != nil {
				specs[i].Plan = plans[i]
			}
		}
		rep := woha.AnalyzePostmortem(events, specs)
		if err := writeFile(s.postmortem, rep.WriteJSON); err != nil {
			return err
		}
		fmt.Fprintf(out, "postmortem report written to %s\n", s.postmortem)
		if err := rep.WriteText(out); err != nil {
			return err
		}
	}
	if s.traceOut != "" {
		if err := writeFile(s.traceOut, func(w io.Writer) error { return woha.WriteTrace(w, events) }); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: %d events written to %s (open in ui.perfetto.dev or chrome://tracing)\n",
			len(events), s.traceOut)
	}
	return nil
}

// writeFile creates path and fills it with write, reporting the first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// stopIntrospection prints the final scrape — through the real listener,
// proving the exposition is served, not just renderable — and then drains the
// server gracefully so in-flight scrapes finish before the listener closes.
func stopIntrospection(s *woha.IntrospectionServer, out io.Writer) error {
	if s == nil {
		return nil
	}
	if err := s.DumpMetrics(out); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}

func buildWorkload(name string) ([]*woha.Workflow, error) {
	switch name {
	case "fig7":
		return experiments.DefaultFig11Config().Flows(), nil
	case "yahoo":
		flows, err := workload.Yahoo(workload.DefaultYahooConfig())
		if err != nil {
			return nil, err
		}
		return workload.MultiJob(flows), nil
	default:
		f, err := os.Open(name)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		w, err := woha.ParseWorkflowXML(f)
		if err != nil {
			return nil, err
		}
		return []*woha.Workflow{w}, nil
	}
}
