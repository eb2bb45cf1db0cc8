package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// PostmortemSchema identifies the JSON document AnalyzePostmortem emits.
// Bump the suffix on any breaking change to the field set.
const PostmortemSchema = "woha-postmortem/v1"

// PostmortemSpec hands the analyzer the static side of one workflow: the DAG
// (for job names and prerequisite edges) and, when the run used a WOHA
// scheduler, the scheduling plan (for the progress requirement list F_i).
// Workflow is the submission index, matching Event.Workflow.
type PostmortemSpec struct {
	Workflow int
	Spec     *workflow.Workflow
	Plan     *plan.Plan
}

// PostmortemReport is the root-cause analysis of a run's deadline misses,
// reconstructed entirely from the event stream. Schema is PostmortemSchema.
type PostmortemReport struct {
	Schema string `json:"schema"`
	// Events is the number of events analyzed; Workflows the number of
	// specs supplied. A ring-buffered stream may have evicted early events,
	// in which case wait/run decompositions are best-effort (see
	// OBSERVABILITY.md).
	Events    int `json:"events"`
	Workflows int `json:"workflows"`
	// Missed holds one entry per workflow that finished late or was still
	// unfinished past its deadline at the end of the stream, in arrival
	// order. Empty when every deadline was met.
	Missed []MissReport `json:"missed"`
}

// MissReport attributes one workflow's deadline miss.
type MissReport struct {
	Workflow int    `json:"workflow"`
	Name     string `json:"name"`
	// Unfinished marks a workflow that never completed within the event
	// stream although its deadline passed; FinishUS and TardinessUS are
	// then lower bounds taken at the last event.
	Unfinished  bool  `json:"unfinished,omitempty"`
	ReleaseUS   int64 `json:"release_us"`
	DeadlineUS  int64 `json:"deadline_us"`
	FinishUS    int64 `json:"finish_us"`
	TardinessUS int64 `json:"tardiness_us"`
	TotalTasks  int   `json:"total_tasks"`
	// Scheduled and Completed count task events observed for the workflow
	// (undercounts if the ring evicted early events).
	Scheduled int `json:"scheduled"`
	Completed int `json:"completed"`
	// FirstUnmetReq is the first progress requirement F_i the run violated,
	// nil when the workflow had no plan or met every requirement (a miss
	// with all requirements met means the plan itself was infeasible).
	FirstUnmetReq *ReqMiss `json:"first_unmet_req,omitempty"`
	// CriticalPath walks the prerequisite chain ending at the workflow's
	// last-completing job, each hop decomposed into slot wait and run time.
	CriticalPath []PathJob `json:"critical_path"`
	// WaitUS and RunUS total the decomposition over the critical path: a
	// wait-dominated miss points at cluster contention, a run-dominated one
	// at the workload itself.
	WaitUS int64 `json:"wait_us"`
	RunUS  int64 `json:"run_us"`
	// Blame names the critical-path job/stage most responsible.
	Blame *Blame `json:"blame,omitempty"`
}

// ReqMiss is the first progress requirement the workflow failed to meet:
// by AtUS (deadline minus TTD) the plan demanded Cum scheduled tasks but
// only Scheduled had been placed — a deficit of Deficit tasks.
type ReqMiss struct {
	TTDUS     int64 `json:"ttd_us"`
	Cum       int   `json:"cum"`
	AtUS      int64 `json:"at_us"`
	Scheduled int   `json:"scheduled"`
	Deficit   int   `json:"deficit"`
}

// PathJob is one hop of the critical path. Wait is activation to first
// assignment (time the job sat schedulable without a slot); Run is first
// assignment to last completion (execution, including intra-job queueing of
// later waves).
type PathJob struct {
	Job           int    `json:"job"`
	Name          string `json:"name"`
	Stage         string `json:"stage"`
	ActivatedUS   int64  `json:"activated_us"`
	FirstAssignUS int64  `json:"first_assign_us"`
	CompletedUS   int64  `json:"completed_us"`
	WaitUS        int64  `json:"wait_us"`
	RunUS         int64  `json:"run_us"`
}

// Blame is the verdict: the critical-path job and stage that contributed
// most to the miss, with its wait/run split and a human-readable reason.
type Blame struct {
	Job    int    `json:"job"`
	Name   string `json:"name"`
	Stage  string `json:"stage"`
	WaitUS int64  `json:"wait_us"`
	RunUS  int64  `json:"run_us"`
	Reason string `json:"reason"`
}

// pmJob accumulates one job's observed lifecycle. Stage-indexed arrays use
// 0 = map, 1 = reduce, matching cluster.SlotType.
type pmJob struct {
	activated    simtime.Time
	hasActivated bool
	firstAssign  [2]simtime.Time
	hasAssign    [2]bool
	lastComplete [2]simtime.Time
	hasComplete  [2]bool
}

// pmWF accumulates one workflow's observed lifecycle.
type pmWF struct {
	submitted simtime.Time
	finished  simtime.Time
	hasFinish bool
	tardiness time.Duration
	assigns   []simtime.Time
	completes int
	jobs      map[int]*pmJob
}

func (w *pmWF) job(j int) *pmJob {
	pj := w.jobs[j]
	if pj == nil {
		pj = &pmJob{}
		w.jobs[j] = pj
	}
	return pj
}

// AnalyzePostmortem reconstructs each missed workflow's timeline from the
// event stream and attributes the miss: the first unmet progress requirement
// F_i, the critical-path job/stage that went late, and a wait-vs-run
// decomposition. Events need not be sorted (the live control plane emits
// from many goroutines); workflows without a spec entry are ignored.
func AnalyzePostmortem(events []Event, specs []PostmortemSpec) *PostmortemReport {
	// Sort a copy by virtual time so timeline reconstruction is order-safe.
	evs := append([]Event(nil), events...)
	sort.SliceStable(evs, func(a, b int) bool { return evs[a].Time < evs[b].Time })

	byWF := map[int]*pmWF{}
	get := func(i int) *pmWF {
		w := byWF[i]
		if w == nil {
			w = &pmWF{jobs: map[int]*pmJob{}}
			byWF[i] = w
		}
		return w
	}
	var last simtime.Time
	for i := range evs {
		e := &evs[i]
		if e.Time > last {
			last = e.Time
		}
		if e.Workflow < 0 {
			continue
		}
		switch e.Kind {
		case KindWorkflowSubmitted:
			get(e.Workflow).submitted = e.Time
		case KindWorkflowCompleted:
			w := get(e.Workflow)
			w.finished, w.hasFinish, w.tardiness = e.Time, true, e.Dur
		case KindJobActivated:
			pj := get(e.Workflow).job(e.Job)
			if !pj.hasActivated {
				pj.activated, pj.hasActivated = e.Time, true
			}
		case KindTaskAssigned:
			w := get(e.Workflow)
			w.assigns = append(w.assigns, e.Time)
			if st := e.Slot; st == 0 || st == 1 {
				pj := w.job(e.Job)
				if !pj.hasAssign[st] {
					pj.firstAssign[st], pj.hasAssign[st] = e.Time, true
				}
			}
		case KindTaskCompleted:
			w := get(e.Workflow)
			w.completes++
			if st := e.Slot; st == 0 || st == 1 {
				pj := w.job(e.Job)
				pj.lastComplete[st], pj.hasComplete[st] = e.Time, true
			}
		}
	}

	rep := &PostmortemReport{Schema: PostmortemSchema, Events: len(evs), Workflows: len(specs)}
	for _, spec := range specs {
		if spec.Spec == nil {
			continue
		}
		data := byWF[spec.Workflow]
		if data == nil {
			continue
		}
		deadline := spec.Spec.Deadline
		missed := data.hasFinish && data.tardiness > 0
		unfinished := !data.hasFinish && last > deadline
		if !missed && !unfinished {
			continue
		}
		m := MissReport{
			Workflow:   spec.Workflow,
			Name:       spec.Spec.Name,
			Unfinished: unfinished,
			ReleaseUS:  spec.Spec.Release.Duration().Microseconds(),
			DeadlineUS: deadline.Duration().Microseconds(),
			TotalTasks: spec.Spec.TotalTasks(),
			Scheduled:  len(data.assigns),
			Completed:  data.completes,
		}
		if data.hasFinish {
			m.FinishUS = data.finished.Duration().Microseconds()
			m.TardinessUS = data.tardiness.Microseconds()
		} else {
			m.FinishUS = last.Duration().Microseconds()
			m.TardinessUS = last.Sub(deadline).Microseconds()
		}
		m.FirstUnmetReq = firstUnmetReq(spec.Plan, deadline, data.assigns)
		m.CriticalPath = criticalPath(spec.Spec, data, last)
		for i := range m.CriticalPath {
			m.WaitUS += m.CriticalPath[i].WaitUS
			m.RunUS += m.CriticalPath[i].RunUS
		}
		m.Blame = blame(m.CriticalPath)
		rep.Missed = append(rep.Missed, m)
	}
	sort.Slice(rep.Missed, func(a, b int) bool { return rep.Missed[a].Workflow < rep.Missed[b].Workflow })
	return rep
}

// firstUnmetReq replays the plan's requirement list against the observed
// assignment times and returns the first entry that was not satisfied: at
// absolute instant deadline-TTD, fewer than Cum tasks had been scheduled.
func firstUnmetReq(p *plan.Plan, deadline simtime.Time, assigns []simtime.Time) *ReqMiss {
	if p == nil {
		return nil
	}
	sorted := append([]simtime.Time(nil), assigns...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	// Reqs are sorted by decreasing TTD, i.e. chronologically.
	for _, r := range p.Reqs {
		at := deadline.Add(-r.TTD)
		n := sort.Search(len(sorted), func(i int) bool { return sorted[i] > at })
		if n < r.Cum {
			return &ReqMiss{
				TTDUS:     r.TTD.Microseconds(),
				Cum:       r.Cum,
				AtUS:      at.Duration().Microseconds(),
				Scheduled: n,
				Deficit:   r.Cum - n,
			}
		}
	}
	return nil
}

// jobTimes resolves one job's observed timeline into path-hop form. A job
// that never completed (workflow unfinished) reports the stream end as its
// completion lower bound.
func jobTimes(spec *workflow.Workflow, data *pmWF, j int, last simtime.Time) PathJob {
	pj := data.job(j)
	hop := PathJob{Job: j, Name: spec.Jobs[j].Name}
	completed, stage := jobCompletion(pj)
	if !pj.hasComplete[0] && !pj.hasComplete[1] {
		completed = last
		stage = "map"
		if pj.hasAssign[1] {
			stage = "reduce"
		}
	}
	hop.Stage = stage
	hop.CompletedUS = completed.Duration().Microseconds()
	activated := pj.activated
	if !pj.hasActivated {
		activated = data.submitted
	}
	hop.ActivatedUS = activated.Duration().Microseconds()
	firstAssign := completed
	switch {
	case pj.hasAssign[0]:
		firstAssign = pj.firstAssign[0]
	case pj.hasAssign[1]:
		firstAssign = pj.firstAssign[1]
	}
	hop.FirstAssignUS = firstAssign.Duration().Microseconds()
	if wait := firstAssign.Sub(activated); wait > 0 {
		hop.WaitUS = wait.Microseconds()
	}
	if run := completed.Sub(firstAssign); run > 0 {
		hop.RunUS = run.Microseconds()
	}
	return hop
}

// jobCompletion returns a job's completion instant (the later stage's last
// completion) and which stage determined it.
func jobCompletion(pj *pmJob) (simtime.Time, string) {
	switch {
	case pj.hasComplete[1] && (!pj.hasComplete[0] || pj.lastComplete[1] >= pj.lastComplete[0]):
		return pj.lastComplete[1], "reduce"
	case pj.hasComplete[0]:
		return pj.lastComplete[0], "map"
	}
	return 0, "map"
}

// criticalPath walks prerequisite edges backwards from the decisive job: for
// a finished workflow the last-completing job, for an unfinished one the job
// stuck without completion. Each hop picks the latest-completing (or stuck)
// prerequisite, so the chain is the dependency path that determined the
// finish time.
func criticalPath(spec *workflow.Workflow, data *pmWF, last simtime.Time) []PathJob {
	lateness := func(j int) (simtime.Time, bool) {
		pj, ok := data.jobs[j]
		if !ok {
			return 0, false
		}
		if !pj.hasComplete[0] && !pj.hasComplete[1] {
			if !pj.hasActivated && !pj.hasAssign[0] && !pj.hasAssign[1] {
				return 0, false
			}
			// Stuck job: later than anything that completed.
			return last + 1, true
		}
		t, _ := jobCompletion(pj)
		return t, true
	}
	start, startT := -1, simtime.Time(0)
	for j := range spec.Jobs {
		if t, ok := lateness(j); ok && (start < 0 || t > startT) {
			start, startT = j, t
		}
	}
	if start < 0 {
		return nil
	}
	var rev []int
	cur := start
	for {
		rev = append(rev, cur)
		if len(rev) > len(spec.Jobs) {
			break // defensive: DAG validation precludes cycles
		}
		next, nextT := -1, simtime.Time(0)
		for _, p := range spec.Jobs[cur].Prereqs {
			if t, ok := lateness(int(p)); ok && (next < 0 || t > nextT) {
				next, nextT = int(p), t
			}
		}
		if next < 0 {
			break
		}
		cur = next
	}
	path := make([]PathJob, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		path = append(path, jobTimes(spec, data, rev[i], last))
	}
	return path
}

// blame picks the critical-path hop most responsible: the largest slot wait
// when any hop waited, otherwise the longest run.
func blame(path []PathJob) *Blame {
	if len(path) == 0 {
		return nil
	}
	waitIdx, runIdx := 0, 0
	for i, hop := range path {
		if hop.WaitUS > path[waitIdx].WaitUS {
			waitIdx = i
		}
		if hop.RunUS > path[runIdx].RunUS {
			runIdx = i
		}
	}
	idx, reason := waitIdx, "largest slot wait on the critical path"
	if path[waitIdx].WaitUS == 0 {
		idx, reason = runIdx, "longest run on the critical path (no slot waits observed)"
	}
	hop := path[idx]
	return &Blame{
		Job: hop.Job, Name: hop.Name, Stage: hop.Stage,
		WaitUS: hop.WaitUS, RunUS: hop.RunUS, Reason: reason,
	}
}

// WriteJSON renders the report as indented JSON.
func (r *PostmortemReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the report as a human-readable summary.
func (r *PostmortemReport) WriteText(w io.Writer) error {
	if len(r.Missed) == 0 {
		_, err := fmt.Fprintf(w, "postmortem: no deadline misses among %d workflows (%d events)\n",
			r.Workflows, r.Events)
		return err
	}
	if _, err := fmt.Fprintf(w, "postmortem: %d/%d workflows missed their deadline (%d events)\n",
		len(r.Missed), r.Workflows, r.Events); err != nil {
		return err
	}
	sec := func(us int64) string { return fmt.Sprintf("%.0fs", float64(us)/1e6) }
	for _, m := range r.Missed {
		state := fmt.Sprintf("missed by %s (deadline %s, finish %s)",
			sec(m.TardinessUS), sec(m.DeadlineUS), sec(m.FinishUS))
		if m.Unfinished {
			state = fmt.Sprintf("unfinished %s past its deadline (%d/%d tasks completed)",
				sec(m.TardinessUS), m.Completed, m.TotalTasks)
		}
		if _, err := fmt.Fprintf(w, "  wf %d %q: %s\n", m.Workflow, m.Name, state); err != nil {
			return err
		}
		if rm := m.FirstUnmetReq; rm != nil {
			fmt.Fprintf(w, "    first unmet requirement: %d/%d tasks scheduled at t=%s (F_i demanded %d by ttd=%s; deficit %d)\n",
				rm.Scheduled, rm.Cum, sec(rm.AtUS), rm.Cum, sec(rm.TTDUS), rm.Deficit)
		} else if m.Completed < m.TotalTasks || m.Scheduled < m.TotalTasks {
			fmt.Fprintf(w, "    no plan requirement violated (no plan, or the stream lost early events)\n")
		} else {
			fmt.Fprintf(w, "    every plan requirement met: the plan itself was infeasible for this deadline\n")
		}
		if len(m.CriticalPath) > 0 {
			fmt.Fprintf(w, "    critical path:")
			for i, hop := range m.CriticalPath {
				if i > 0 {
					fmt.Fprintf(w, " →")
				}
				fmt.Fprintf(w, " j%d %s", hop.Job, hop.Name)
			}
			fmt.Fprintf(w, "\n")
		}
		if b := m.Blame; b != nil {
			fmt.Fprintf(w, "    blame: j%d %q %s stage — waited %s for slots, ran %s (critical-path wait %s vs run %s): %s\n",
				b.Job, b.Name, b.Stage, sec(b.WaitUS), sec(b.RunUS), sec(m.WaitUS), sec(m.RunUS), b.Reason)
		}
	}
	return nil
}
