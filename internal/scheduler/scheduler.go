// Package scheduler implements the WorkflowScheduler policies evaluated in
// the WOHA paper: the progress-based WOHA scheduler (Section IV) plus the
// three ported baselines of Section V-B — Oozie+FIFO, Oozie+Fair, and EDF.
//
// All policies implement cluster.Policy and are consulted by the simulated
// JobTracker on every slot free-up. They are deliberately work-conserving:
// when the top-priority workflow has no task matching the idle slot type, the
// next workflow in priority order is offered the slot.
package scheduler

import (
	"sort"

	"repro/internal/cluster"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// base provides the bookkeeping shared by the simple baselines: the live
// workflows held sorted by submission index. NextTask runs once per dispatch
// offer, so the set is kept ordered on mutation (arrivals and completions,
// both rare) instead of sorted per read — the old map + per-call sort.Slice
// was the baselines' dominant cost on the Fig 8 corpus.
type base struct {
	live []*cluster.WorkflowState
}

func (b *base) init() {
	b.live = nil
}

func (b *base) WorkflowAdded(ws *cluster.WorkflowState, _ simtime.Time) {
	i := sort.Search(len(b.live), func(k int) bool { return b.live[k].Index > ws.Index })
	b.live = append(b.live, nil)
	copy(b.live[i+1:], b.live[i:])
	b.live[i] = ws
}

func (b *base) JobActivated(*cluster.WorkflowState, workflow.JobID, simtime.Time) {}

func (b *base) TaskStarted(*cluster.WorkflowState, workflow.JobID, cluster.SlotType, simtime.Time) {
}

func (b *base) WorkflowCompleted(ws *cluster.WorkflowState, _ simtime.Time) {
	i := sort.Search(len(b.live), func(k int) bool { return b.live[k].Index >= ws.Index })
	if i < len(b.live) && b.live[i] == ws {
		copy(b.live[i:], b.live[i+1:])
		b.live[len(b.live)-1] = nil
		b.live = b.live[:len(b.live)-1]
	}
}

// ordered returns the live workflows sorted by submission index, for
// deterministic scans. Callers must not mutate the returned slice.
func (b *base) ordered() []*cluster.WorkflowState {
	return b.live
}

// earliestSchedulableJob returns ws's Ready job with a pending task of type
// st that was activated first (ties by job ID) — Hadoop's per-job FIFO order
// within a workflow. Iterating the schedulable index visits jobs in ascending
// ID order, so keeping the first strictly-earlier activation preserves the
// tie-break.
func earliestSchedulableJob(ws *cluster.WorkflowState, st cluster.SlotType) (workflow.JobID, bool) {
	best := -1
	for j, ok := ws.NextSchedulableJob(st, 0); ok; j, ok = ws.NextSchedulableJob(st, j+1) {
		if best < 0 || ws.Jobs[j].ActivatedAt < ws.Jobs[best].ActivatedAt {
			best = int(j)
		}
	}
	if best < 0 {
		return 0, false
	}
	return workflow.JobID(best), true
}

// FIFO is Oozie with Hadoop's default JobQueueTaskScheduler: jobs are
// submitted when their prerequisites finish and served strictly in submission
// order, with no awareness of workflow deadlines.
type FIFO struct {
	base
	// queue holds (activation time, workflow, job) in submission order.
	// Activations arrive in non-decreasing time order, so appends keep it
	// sorted; exhausted jobs are dropped lazily during scans.
	queue []fifoEntry
}

type fifoEntry struct {
	ws  *cluster.WorkflowState
	job workflow.JobID
}

var _ cluster.Policy = (*FIFO)(nil)

// NewFIFO returns the Oozie+FIFO baseline.
func NewFIFO() *FIFO {
	f := &FIFO{}
	f.init()
	return f
}

// Name implements cluster.Policy.
func (f *FIFO) Name() string { return "FIFO" }

// JobActivated implements cluster.Policy: the job enters the global queue at
// its Hadoop submission time.
func (f *FIFO) JobActivated(ws *cluster.WorkflowState, job workflow.JobID, _ simtime.Time) {
	f.queue = append(f.queue, fifoEntry{ws: ws, job: job})
}

// NextTask implements cluster.Policy: compact and search in one pass,
// returning the first schedulable entry. Only completed jobs are dropped —
// a fully scheduled job can re-enter the pending pool when a node failure
// re-queues its running tasks. Entries past the first hit keep their order
// and are compacted by a later call; a completed job is never schedulable,
// so deferring its removal cannot change a decision.
func (f *FIFO) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	w := 0
	for i, e := range f.queue {
		js := &e.ws.Jobs[e.job]
		if js.Completed() {
			continue
		}
		f.queue[w] = e
		w++
		if js.Schedulable(st) {
			n := copy(f.queue[w:], f.queue[i+1:])
			f.queue = f.queue[:w+n]
			return e.ws, e.job, true
		}
	}
	f.queue = f.queue[:w]
	return nil, 0, false
}

// Fair mimics the Facebook FairScheduler as the paper ports it: "all running
// jobs evenly share the resources of the Hadoop cluster in a work conserving
// way". Sharing is per job — a workflow with many concurrently active jobs
// draws proportionally more of the cluster — and has no deadline awareness.
type Fair struct {
	base
}

var _ cluster.Policy = (*Fair)(nil)

// NewFair returns the Oozie+Fair baseline.
func NewFair() *Fair {
	f := &Fair{}
	f.init()
	return f
}

// Name implements cluster.Policy.
func (f *Fair) Name() string { return "Fair" }

// NextTask implements cluster.Policy: among all schedulable jobs, pick the
// one with the fewest running tasks (ties by activation time, then workflow
// index, then job ID).
func (f *Fair) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	var (
		bestWS  *cluster.WorkflowState
		bestJob workflow.JobID
		found   bool
	)
	better := func(ws *cluster.WorkflowState, j workflow.JobID) bool {
		if !found {
			return true
		}
		a, b := &ws.Jobs[j], &bestWS.Jobs[bestJob]
		ar, br := a.RunningMaps+a.RunningReduces, b.RunningMaps+b.RunningReduces
		if ar != br {
			return ar < br
		}
		if a.ActivatedAt != b.ActivatedAt {
			return a.ActivatedAt < b.ActivatedAt
		}
		return false // earlier workflow/job in scan order wins remaining ties
	}
	for _, ws := range f.ordered() {
		for j, ok := ws.NextSchedulableJob(st, 0); ok; j, ok = ws.NextSchedulableJob(st, j+1) {
			if better(ws, j) {
				bestWS, bestJob, found = ws, j, true
			}
		}
	}
	return bestWS, bestJob, found
}

// EDF assigns the highest priority to the workflow with the earliest
// deadline, following Verma et al.'s deadline-based Hadoop scheduling ported
// to whole workflows.
type EDF struct {
	base
}

var _ cluster.Policy = (*EDF)(nil)

// NewEDF returns the EDF baseline.
func NewEDF() *EDF {
	e := &EDF{}
	e.init()
	return e
}

// Name implements cluster.Policy.
func (e *EDF) Name() string { return "EDF" }

// NextTask implements cluster.Policy.
func (e *EDF) NextTask(_ simtime.Time, st cluster.SlotType) (*cluster.WorkflowState, workflow.JobID, bool) {
	var best *cluster.WorkflowState
	for _, ws := range e.ordered() {
		if !ws.Schedulable(st) {
			continue
		}
		if best == nil || ws.Spec.Deadline < best.Spec.Deadline {
			best = ws
		}
	}
	if best == nil {
		return nil, 0, false
	}
	job, ok := earliestSchedulableJob(best, st)
	return best, job, ok
}
