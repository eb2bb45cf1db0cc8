package main

import (
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// timedPolicy wraps a scheduling policy and sums the time spent in its
// callbacks. Like cluster.InstrumentPolicy it forwards the optional
// ReducePhasePolicy and RequeuePolicy extensions only when the wrapped
// policy has them, so the simulator and the live tracker schedule exactly
// as they would unwrapped. Policies are never called concurrently, so the
// sums need no synchronisation; they are read after the run has ended.
type timedPolicy struct {
	cluster.Policy
	nextCalls, nextNs   int64 // NextTask
	otherCalls, otherNs int64 // every other callback
}

var (
	_ cluster.ReducePhasePolicy = (*timedPolicy)(nil)
	_ cluster.RequeuePolicy     = (*timedPolicy)(nil)
)

func (p *timedPolicy) other(t0 time.Time) {
	p.otherCalls++
	p.otherNs += time.Since(t0).Nanoseconds()
}

func (p *timedPolicy) NextTask(now simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	t0 := time.Now()
	ws, job, ok := p.Policy.NextTask(now, st)
	p.nextCalls++
	p.nextNs += time.Since(t0).Nanoseconds()
	return ws, job, ok
}

func (p *timedPolicy) WorkflowAdded(ws *cluster.WorkflowState, now simtime.Time) {
	defer p.other(time.Now())
	p.Policy.WorkflowAdded(ws, now)
}

func (p *timedPolicy) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	defer p.other(time.Now())
	p.Policy.JobActivated(ws, job, now)
}

func (p *timedPolicy) TaskStarted(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	defer p.other(time.Now())
	p.Policy.TaskStarted(ws, job, st, now)
}

func (p *timedPolicy) WorkflowCompleted(ws *cluster.WorkflowState, now simtime.Time) {
	defer p.other(time.Now())
	p.Policy.WorkflowCompleted(ws, now)
}

func (p *timedPolicy) ReducesReady(ws *cluster.WorkflowState, job workflow.JobID, now simtime.Time) {
	if rp, ok := p.Policy.(cluster.ReducePhasePolicy); ok {
		defer p.other(time.Now())
		rp.ReducesReady(ws, job, now)
	}
}

func (p *timedPolicy) TaskRequeued(ws *cluster.WorkflowState, job workflow.JobID, st cluster.SlotType, now simtime.Time) {
	if rq, ok := p.Policy.(cluster.RequeuePolicy); ok {
		defer p.other(time.Now())
		rq.TaskRequeued(ws, job, st, now)
	}
}

// rollups records the policy's sums as children of parent.
func (p *timedPolicy) rollups(tr *tracer, parent *spanRef) {
	tr.rollup("policy.NextTask", parent, p.nextCalls, time.Duration(p.nextNs))
	tr.rollup("policy.callbacks", parent, p.otherCalls, time.Duration(p.otherNs))
}

// call is one timed call on behalf of a submitted workflow.
type call struct {
	wf      int // index into the workload's flows
	start   time.Time
	dur     time.Duration
	verdict admission.Verdict // rulings only
}

// timedController times every admission ruling of one member cluster on
// the calling thread's CPU clock. All members of a federation step on one
// goroutine, locked to its thread, so they share one log.
type timedController struct {
	admission.Controller
	index map[*workflow.Workflow]int
	log   *[]call
}

func (c *timedController) Decide(w *workflow.Workflow, p *plan.Plan, now simtime.Time) admission.Decision {
	t0, c0 := time.Now(), threadTime()
	d := c.Controller.Decide(w, p, now)
	*c.log = append(*c.log, call{wf: c.index[w], start: t0, dur: threadTime() - c0, verdict: d.Verdict})
	return d
}

// timedRouter times every routing decision.
type timedRouter struct {
	federation.Router
	index map[*workflow.Workflow]int
	log   []call
}

func (r *timedRouter) Route(w *workflow.Workflow, p *plan.Plan, snaps []federation.Snapshot) int {
	t0 := time.Now()
	id := r.Router.Route(w, p, snaps)
	r.log = append(r.log, call{wf: r.index[w], start: t0, dur: time.Since(t0)})
	return id
}
