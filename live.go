package woha

import (
	"context"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/plan"
)

// LiveConfig configures the concurrent mini-Hadoop (see internal/live): the
// same schedulers running against goroutine TaskTrackers that report over
// real heartbeat messages instead of discrete events.
type LiveConfig = live.Config

// LiveResult is the outcome of a live run.
type LiveResult = live.Result

// LiveSession wires the live cluster to a scheduler, mirroring Session.
type LiveSession struct {
	caps    plan.Caps
	prio    PriorityPolicy
	planner *Planner
	cluster *live.Cluster
	ins     *Instrumentation
}

// NewLiveSession creates a live session. Set UseTCP to route heartbeats over
// a real TCP loopback connection via net/rpc. It resolves options as
// NewSession does: WithAdmission becomes the JobTracker's front door and the
// plan-shaping options (WithPlanner, WithPlanCache, WithPlannerWorkers,
// WithPlanMargin) shape Submit's plans. WithObserver is rejected: the live
// cluster reports task lifecycle through WithInstrumentation only.
func NewLiveSession(cfg LiveConfig, sched Scheduler, useTCP bool, opts ...SessionOption) (*LiveSession, error) {
	o := sessionOptions{margin: 0.85}
	for _, opt := range opts {
		opt(&o)
	}
	if o.observer != nil {
		return nil, fmt.Errorf("woha: NewLiveSession does not accept WithObserver; use WithInstrumentation")
	}
	pol := o.policy
	if pol == nil {
		var err error
		pol, err = sched.newPolicy(o.seed, o.obs)
		if err != nil {
			return nil, err
		}
	}
	pol = cluster.InstrumentPolicy(pol, o.obs)
	s := &LiveSession{
		caps: plan.Caps{Maps: cfg.Nodes * cfg.MapSlotsPerNode, Reduces: cfg.Nodes * cfg.ReduceSlotsPerNode},
		prio: sched.priorityFor(),
		ins:  o.obs,
	}
	if s.prio != nil {
		var err error
		if s.planner, err = o.resolvePlanner(); err != nil {
			return nil, err
		}
	}
	// The JobTracker reads its instrumentation and front door from the
	// config.
	cfg.Obs = o.obs
	if o.admission != nil {
		cfg.Admission = o.admission
	}
	var err error
	if useTCP {
		s.cluster, err = live.NewTCP(cfg, pol)
	} else {
		s.cluster, err = live.New(cfg, pol)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Submit queues a workflow, generating its plan client-side under WOHA
// schedulers.
func (s *LiveSession) Submit(w *Workflow) error {
	var p *Plan
	if s.planner != nil {
		var err error
		p, err = s.planner.Plan(w, s.caps, s.prio)
		if err != nil {
			return fmt.Errorf("woha: %w", err)
		}
		s.ins.PlanGenerated(w.Release, w.Name, p.SearchIters)
	}
	if err := s.cluster.Submit(w, p); err != nil {
		return fmt.Errorf("woha: %w", err)
	}
	return nil
}

// Run executes the live cluster until every workflow completes or ctx ends,
// then releases any TCP transport.
func (s *LiveSession) Run(ctx context.Context) (*LiveResult, error) {
	res, err := s.cluster.Run(ctx)
	if cerr := s.cluster.CloseTransport(); err == nil && cerr != nil {
		err = fmt.Errorf("woha: closing transport: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}
