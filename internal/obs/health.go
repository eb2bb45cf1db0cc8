package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
)

// SlackBuckets are the woha_health_slack_tasks histogram bounds. Slack is a
// signed task count (completed minus required), so unlike the duration
// buckets the range is symmetric around zero: deep-behind workflows land in
// the negative buckets, comfortably-ahead ones in the positive tail.
var SlackBuckets = []float64{-1024, -256, -64, -16, -4, -1, 0, 1, 4, 16, 64, 256, 1024}

// DefaultHealthInterval is the snapshot interval when HealthConfig leaves it
// zero: 30 seconds of virtual time, one tenth of Hadoop's classic 5-minute
// task timeout and fine enough to catch a workflow falling behind within one
// plan requirement step.
const DefaultHealthInterval = 30 * time.Second

// HealthConfig shapes the deadline-health tracker.
type HealthConfig struct {
	// Interval is the minimum virtual time between slack snapshots. It is
	// also the staleness bound of every read surface (the woha_health_*
	// gauges, the /statusz health block, the KindHealthSlack events): a
	// value read there is at most one interval old. 0 selects
	// DefaultHealthInterval.
	Interval time.Duration
}

// HealthTracker computes per-workflow deadline slack at runtime: every
// Interval of virtual time it compares each live workflow's completed-task
// count against the progress requirement its scheduling plan demands at that
// instant (plan.RequiredAt), publishing the result as woha_health_* metrics,
// typed threshold-crossing events, and an immutable HealthSnapshot for
// /statusz.
//
// The tracker is fed by the Obs hot-path methods (WorkflowSubmitted,
// TaskAssigned, TaskCompleted, WorkflowCompleted) and advances its snapshot
// clock from both the heartbeat path and task completions, so it works under
// the live control plane and in instant-dispatch simulations alike. Feeds
// touch only per-workflow atomics — no locks, no allocation — and every
// method no-ops on a nil receiver, matching the rest of the obs layer.
//
// One tracker observes one run. Registration may race with traffic (the
// workflow table is copy-on-write behind an atomic pointer), but counters are
// not re-zeroed: reusing a tracker for a second run would merge the runs.
type HealthTracker struct {
	o        *Obs
	interval time.Duration

	// mu serializes registration (copy-on-write of the table below) and
	// snapshot computation; feeds never take it.
	mu  sync.Mutex
	wfs atomic.Pointer[[]*healthWF]

	// last is the virtual time (ns) of the last claimed snapshot; tick
	// CASes it forward so concurrent heartbeats elect one snapshotter.
	last atomic.Int64
	snap atomic.Pointer[HealthSnapshot]

	maps, reds atomic.Int64

	minSlack   *Gauge
	behind     *Gauge
	liveWFs    *Gauge
	slackDist  *Histogram
	snaps      *Counter
	fellBehind *Counter
	recovered  *Counter
	predicted  *Counter
}

func newHealthTracker(o *Obs, cfg HealthConfig) *HealthTracker {
	iv := cfg.Interval
	if iv <= 0 {
		iv = DefaultHealthInterval
	}
	reg := o.reg
	h := &HealthTracker{
		o:        o,
		interval: iv,
		minSlack: reg.Gauge(MetricHealthMinSlack,
			"Smallest slack (completed minus required tasks) over live planned workflows; 0 when none are live."),
		behind: reg.Gauge(MetricHealthBehind,
			"Live planned workflows currently behind their plan (slack < 0)."),
		liveWFs: reg.Gauge(MetricHealthLive,
			"Workflows released and not yet completed at the last health snapshot."),
		slackDist: reg.Histogram(MetricHealthSlackDist,
			"Per-workflow slack (completed minus required tasks) observed at each health snapshot.", SlackBuckets),
		snaps: reg.Counter(MetricHealthSnapshots, "Health snapshots computed."),
		fellBehind: reg.Counter(MetricHealthFellBehind,
			"Workflow transitions from on-plan to behind plan (slack dropped below 0)."),
		recovered: reg.Counter(MetricHealthRecovered,
			"Workflow transitions from behind plan back to non-negative slack."),
		predicted: reg.Counter(MetricHealthPredictedMisses,
			"Workflows first predicted to miss their deadline by plan-rate extrapolation."),
	}
	empty := make([]*healthWF, 0)
	h.wfs.Store(&empty)
	return h
}

// healthWF is one workflow's health state. The counter fields are written by
// the feed methods (atomics, any goroutine); behind and predicted are
// crossing latches owned by the snapshot loop under h.mu.
type healthWF struct {
	index    int
	name     string
	release  simtime.Time
	deadline simtime.Time
	total    int
	plan     *plan.Plan

	scheduled atomic.Int64
	completed atomic.Int64
	released  atomic.Bool
	done      atomic.Bool
	finish    atomic.Int64 // virtual ns of completion, valid once done

	behind    bool
	predicted bool
}

// Register adds one workflow to the health table before (or while) the run
// starts. wf is the workflow's submission index — the same index every Obs feed
// method reports. p may be nil (baseline schedulers): the workflow still
// appears in snapshots, but has no slack, since slack is defined against a
// plan's requirement list.
func (h *HealthTracker) Register(wf int, name string, release, deadline simtime.Time, total int, p *plan.Plan) {
	if h == nil || wf < 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := *h.wfs.Load()
	next := make([]*healthWF, len(cur), max(len(cur), wf+1))
	copy(next, cur)
	for len(next) <= wf {
		next = append(next, nil)
	}
	next[wf] = &healthWF{
		index: wf, name: name, release: release, deadline: deadline,
		total: total, plan: p,
	}
	h.wfs.Store(&next)
}

// SetSlots records the cluster's slot capacity for /statusz utilization.
func (h *HealthTracker) SetSlots(maps, reduces int) {
	if h == nil {
		return
	}
	h.maps.Store(int64(maps))
	h.reds.Store(int64(reduces))
}

// Interval returns the snapshot interval (the staleness bound), 0 on nil.
func (h *HealthTracker) Interval() time.Duration {
	if h == nil {
		return 0
	}
	return h.interval
}

// wf returns the registered entry for index i, nil when unknown. Lock-free:
// one atomic pointer load plus a bounds check.
func (h *HealthTracker) wf(i int) *healthWF {
	wfs := *h.wfs.Load()
	if i < 0 || i >= len(wfs) {
		return nil
	}
	return wfs[i]
}

func (h *HealthTracker) workflowReleased(i int) {
	if h == nil {
		return
	}
	if w := h.wf(i); w != nil {
		w.released.Store(true)
	}
}

func (h *HealthTracker) taskScheduled(i int) {
	if h == nil {
		return
	}
	if w := h.wf(i); w != nil {
		w.scheduled.Add(1)
	}
}

func (h *HealthTracker) taskCompleted(i int) {
	if h == nil {
		return
	}
	if w := h.wf(i); w != nil {
		w.completed.Add(1)
	}
}

func (h *HealthTracker) workflowDone(i int, now simtime.Time) {
	if h == nil {
		return
	}
	if w := h.wf(i); w != nil {
		w.finish.Store(int64(now))
		w.done.Store(true)
	}
}

// tick advances the snapshot clock: when at least one interval of virtual
// time has passed since the last snapshot, the caller that wins the CAS
// computes the next one. Losing callers (and every call inside the interval)
// return after two atomic operations.
func (h *HealthTracker) tick(now simtime.Time) {
	if h == nil {
		return
	}
	last := h.last.Load()
	if int64(now)-last < int64(h.interval) {
		return
	}
	if !h.last.CompareAndSwap(last, int64(now)) {
		return
	}
	h.SnapshotAt(now)
}

// SnapshotAt computes a health snapshot as of the given virtual instant,
// publishes it to the metrics/event surfaces, and returns it. The periodic
// path calls it through tick; tests and result paths may call it directly
// for a deterministic read. Returns nil on a nil receiver.
func (h *HealthTracker) SnapshotAt(now simtime.Time) *HealthSnapshot {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	wfs := *h.wfs.Load()
	snap := &HealthSnapshot{
		TUS:         now.Duration().Microseconds(),
		IntervalUS:  h.interval.Microseconds(),
		MapSlots:    int(h.maps.Load()),
		ReduceSlots: int(h.reds.Load()),
		Workflows:   make([]WorkflowHealth, 0, len(wfs)),
	}
	haveSlack := false
	for _, w := range wfs {
		if w == nil {
			continue
		}
		// Load done before completed: a concurrent completion can make the
		// row's counters slightly newer than its done flag, but never show a
		// finished workflow as live.
		done := w.done.Load()
		released := w.released.Load()
		completed := int(w.completed.Load())
		scheduled := int(w.scheduled.Load())
		row := WorkflowHealth{
			Workflow: w.index, Name: w.name,
			Released: released, Done: done,
			Scheduled: scheduled, Completed: completed, Total: w.total,
			TTDUS: w.deadline.Sub(now).Microseconds(),
		}
		if done {
			if fin := simtime.Time(w.finish.Load()); fin > w.deadline {
				row.TardinessUS = fin.Sub(w.deadline).Microseconds()
			}
		}
		ttd := w.deadline.Sub(now)
		if w.plan != nil {
			row.HasPlan = true
			row.Required = w.plan.RequiredAt(ttd)
			row.Slack = completed - row.Required
		}
		if released && !done {
			snap.Live++
			snap.InFlight += scheduled - completed
			if w.plan != nil {
				h.slackDist.Observe(float64(row.Slack))
				if !haveSlack || row.Slack < snap.MinSlack {
					snap.MinSlack, haveSlack = row.Slack, true
				}
				behindNow := row.Slack < 0
				row.Behind = behindNow
				if behindNow {
					snap.Behind++
				}
				if behindNow && !w.behind {
					h.fellBehind.Inc()
					h.o.Emit(Event{Kind: KindHealthFellBehind, Time: now, Workflow: w.index,
						Job: -1, Tracker: -1, Slot: -1, Name: w.name, N: row.Slack})
				} else if !behindNow && w.behind {
					h.recovered.Inc()
					h.o.Emit(Event{Kind: KindHealthRecovered, Time: now, Workflow: w.index,
						Job: -1, Tracker: -1, Slot: -1, Name: w.name, N: row.Slack})
				}
				w.behind = behindNow
				predNow := predictMiss(w.plan, w.total, completed, ttd)
				row.PredictedMiss = predNow
				if predNow && !w.predicted {
					h.predicted.Inc()
					h.o.Emit(Event{Kind: KindHealthPredictedMiss, Time: now, Workflow: w.index,
						Job: -1, Tracker: -1, Slot: -1, Name: w.name, N: w.total - completed})
				}
				w.predicted = predNow
				h.o.Emit(Event{Kind: KindHealthSlack, Time: now, Workflow: w.index,
					Job: -1, Tracker: -1, Slot: -1, Name: w.name, N: row.Slack})
			}
		}
		snap.Workflows = append(snap.Workflows, row)
	}
	h.minSlack.Set(int64(snap.MinSlack))
	h.behind.Set(int64(snap.Behind))
	h.liveWFs.Set(int64(snap.Live))
	h.snaps.Inc()
	h.snap.Store(snap)
	return snap
}

// Last returns the most recently published snapshot, nil when none has been
// computed yet (or on a nil receiver). The value is immutable and at most
// one Interval stale while traffic flows.
func (h *HealthTracker) Last() *HealthSnapshot {
	if h == nil {
		return nil
	}
	return h.snap.Load()
}

// predictMiss extrapolates whether the workflow can still finish in time:
// the plan's standalone simulation sustained total/Makespan tasks per
// second, so if the remaining tasks exceed that rate times the time to
// deadline even this best case misses. With the deadline already past (and
// work remaining) the miss is certain at any rate.
func predictMiss(p *plan.Plan, total, completed int, ttd time.Duration) bool {
	remaining := total - completed
	if remaining <= 0 {
		return false
	}
	if ttd <= 0 {
		return true
	}
	if p.Makespan <= 0 {
		return false
	}
	rate := float64(total) / p.Makespan.Seconds()
	return float64(remaining) > rate*ttd.Seconds()
}

// HealthSnapshot is one immutable point-in-time view of every registered
// workflow's deadline health, serializable as the /statusz health block.
// Times are microseconds of virtual time.
type HealthSnapshot struct {
	// TUS is the virtual instant the snapshot describes; IntervalUS the
	// configured snapshot interval (the staleness bound of this data).
	TUS        int64 `json:"t_us"`
	IntervalUS int64 `json:"interval_us"`
	// MapSlots and ReduceSlots are the cluster capacity (0 if never set);
	// InFlight is the number of tasks assigned but not yet completed, so
	// InFlight/(MapSlots+ReduceSlots) approximates slot utilization.
	MapSlots    int `json:"map_slots"`
	ReduceSlots int `json:"reduce_slots"`
	InFlight    int `json:"in_flight_tasks"`
	// Live counts workflows released and not done; Behind those with
	// negative slack; MinSlack the smallest slack over live planned
	// workflows (0 when none are live).
	Live     int `json:"live_workflows"`
	Behind   int `json:"behind_workflows"`
	MinSlack int `json:"min_slack"`
	// Workflows holds one row per registered workflow, by submission index.
	Workflows []WorkflowHealth `json:"workflows"`
}

// WorkflowHealth is one workflow's row in a HealthSnapshot.
type WorkflowHealth struct {
	Workflow  int    `json:"workflow"`
	Name      string `json:"name"`
	Released  bool   `json:"released"`
	Done      bool   `json:"done"`
	Scheduled int    `json:"scheduled"`
	Completed int    `json:"completed"`
	Total     int    `json:"total"`
	// HasPlan reports whether the workflow carries a scheduling plan; the
	// three fields after it are only meaningful when it is true. Slack is
	// Completed minus Required, the plan requirement in force (negative =
	// behind plan).
	HasPlan  bool `json:"has_plan"`
	Required int  `json:"required"`
	Slack    int  `json:"slack"`
	// TTDUS is the time to deadline at the snapshot instant (negative once
	// the deadline has passed).
	TTDUS int64 `json:"ttd_us"`
	// Behind and PredictedMiss are only set for live planned workflows.
	Behind        bool `json:"behind"`
	PredictedMiss bool `json:"predicted_miss"`
	// TardinessUS is how far past the deadline the workflow finished
	// (0 = met or still running).
	TardinessUS int64 `json:"tardiness_us"`
}
