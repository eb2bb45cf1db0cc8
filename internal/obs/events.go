package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"

	"repro/internal/simtime"
)

// Kind enumerates the typed scheduler events the framework emits.
type Kind uint8

// Event kinds. The catalogue mirrors the control-plane decision points: the
// workflow lifecycle, the heartbeat loop, the inter-workflow queue, and plan
// generation.
const (
	// KindWorkflowSubmitted fires when a workflow's release time arrives and
	// the policy first sees it.
	KindWorkflowSubmitted Kind = iota
	// KindWorkflowCompleted fires when every task of a workflow finished.
	// Dur carries the tardiness (0 = deadline met).
	KindWorkflowCompleted
	// KindDeadlineMissed fires alongside KindWorkflowCompleted when the
	// finish time exceeded the deadline. Dur carries the tardiness.
	KindDeadlineMissed
	// KindJobActivated fires when a job's prerequisites finish and its tasks
	// become schedulable.
	KindJobActivated
	// KindTaskAssigned fires when the scheduler places one task on a slot.
	// Dur carries the task's (virtual) duration estimate; Tracker the node.
	KindTaskAssigned
	// KindHeartbeatServed fires once per heartbeat the JobTracker answers.
	// Dur carries the wall-clock handling latency; N the assignment count.
	KindHeartbeatServed
	// KindQueueInsert fires when a workflow enters the inter-workflow queue.
	KindQueueInsert
	// KindQueueDelete fires when a workflow leaves the inter-workflow queue.
	KindQueueDelete
	// KindQueueHeadHit fires when a Best call is served from the priority
	// list head. N carries the number of entries re-prioritized first
	// (0 = the pure O(1) fast path).
	KindQueueHeadHit
	// KindPlanGenerated fires when a scheduling plan is produced. N carries
	// the capped binary search's Generate invocation count.
	KindPlanGenerated
	// KindTaskCompleted fires when a task attempt finishes successfully and
	// its output is accounted (lost or killed attempts do not fire it). Slot
	// carries the stage and Tracker the node, mirroring KindTaskAssigned.
	KindTaskCompleted
	// KindHealthSlack is one workflow's row of a periodic health snapshot.
	// N carries the slack: tasks completed minus the plan requirement in
	// force at the snapshot instant (negative = behind plan).
	KindHealthSlack
	// KindHealthFellBehind fires when a live workflow's slack first drops
	// below zero. N carries the slack at the crossing.
	KindHealthFellBehind
	// KindHealthRecovered fires when a previously behind workflow returns
	// to non-negative slack. N carries the slack at the crossing.
	KindHealthRecovered
	// KindHealthPredictedMiss fires when the health tracker first predicts,
	// by linear extrapolation of the plan's standalone throughput, that the
	// workflow cannot finish by its deadline. N carries the tasks remaining.
	KindHealthPredictedMiss
	// KindAdmissionAdmitted fires when the admission controller admits a
	// submission. Name carries the workflow name; Dur the decision latency.
	KindAdmissionAdmitted
	// KindAdmissionDeferred fires when the admission controller postpones a
	// submission. Name carries the workflow name; Dur the virtual wait until
	// the retry instant.
	KindAdmissionDeferred
	// KindAdmissionRejected fires when the admission controller turns a
	// submission away. Name carries the workflow name; when the rejection
	// includes a counter-offered deadline, N is 1 and Dur the virtual
	// distance from the event time to the offered deadline.
	KindAdmissionRejected

	numKinds
)

var kindNames = [numKinds]string{
	"workflow_submitted", "workflow_completed", "deadline_missed",
	"job_activated", "task_assigned", "heartbeat_served",
	"queue_insert", "queue_delete", "queue_head_hit", "plan_generated",
	"task_completed", "health_slack", "health_fell_behind",
	"health_recovered", "health_predicted_miss",
	"admission_admitted", "admission_deferred", "admission_rejected",
}

// String returns the snake_case event name used in the JSONL schema.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one structured scheduler event. Integer fields not applicable to
// a kind hold -1; see the Kind constants for which fields each kind carries.
type Event struct {
	// Kind is the event type.
	Kind Kind
	// Time is the virtual (workflow) time of the event.
	Time simtime.Time
	// Workflow is the workflow's submission index (-1 when not applicable).
	Workflow int
	// Job is the job index within the workflow (-1 when not applicable).
	Job int
	// Tracker is the TaskTracker/node index (-1 when not applicable).
	Tracker int
	// Slot is the slot type (0 map, 1 reduce, -1 when not applicable).
	Slot int
	// Name annotates the event: workflow name, queue backend, or policy.
	Name string
	// Dur is the event's duration payload (heartbeat latency, task length,
	// tardiness).
	Dur time.Duration
	// N is the event's count payload (assignments, search iterations).
	N int
}

// eventJSON is the stable JSONL schema (documented in OBSERVABILITY.md).
type eventJSON struct {
	Kind     string `json:"kind"`
	TUS      int64  `json:"t_us"`
	Workflow int    `json:"workflow"`
	Job      int    `json:"job"`
	Tracker  int    `json:"tracker"`
	Slot     int    `json:"slot"`
	Name     string `json:"name,omitempty"`
	DurUS    int64  `json:"dur_us,omitempty"`
	N        int    `json:"n,omitempty"`
}

// MarshalJSON renders the event in the JSONL schema: kind as its snake_case
// name, times in microseconds of virtual time.
func (e Event) MarshalJSON() ([]byte, error) {
	return json.Marshal(eventJSON{
		Kind:     e.Kind.String(),
		TUS:      e.Time.Duration().Microseconds(),
		Workflow: e.Workflow,
		Job:      e.Job,
		Tracker:  e.Tracker,
		Slot:     e.Slot,
		Name:     e.Name,
		DurUS:    e.Dur.Microseconds(),
		N:        e.N,
	})
}

// EventSink receives the event stream. Implementations must be safe for
// concurrent Emit calls; the live control plane emits from many goroutines.
type EventSink interface {
	Emit(Event)
}

// Ring is a bounded in-memory EventSink: a ring buffer that keeps the most
// recent events and counts the total ever emitted, so the hot path never
// blocks or allocates however long the run.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	next  int
	total int
}

// DefaultRingSize is the Ring capacity when NewRing is given n <= 0.
const DefaultRingSize = 4096

// NewRing returns a ring sink keeping the last n events.
func NewRing(n int) *Ring {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Ring{buf: make([]Event, 0, n)}
}

// Emit implements EventSink. Like the rest of the package, a nil *Ring is a
// valid no-op sink — guarding here keeps a typed-nil boxed into an EventSink
// from panicking.
func (r *Ring) Emit(e Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, e)
	} else {
		r.buf[r.next] = e
	}
	r.next = (r.next + 1) % cap(r.buf)
	r.total++
	r.mu.Unlock()
}

// Events returns a snapshot of the retained events, oldest first. A nil
// *Ring has no events.
func (r *Ring) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.buf))
	if len(r.buf) == cap(r.buf) {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Total returns the number of events ever emitted (retained or not).
func (r *Ring) Total() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// CountKind returns how many retained events have the given kind.
func (r *Ring) CountKind(k Kind) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for i := range r.buf {
		if r.buf[i].Kind == k {
			n++
		}
	}
	return n
}

// JSONL is an EventSink writing one JSON object per line to w. Write errors
// are sticky: the first one stops further output and is reported by Err.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewJSONL returns a JSONL sink over w. The caller owns w's lifetime.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements EventSink.
func (s *JSONL) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	s.err = s.enc.Encode(e)
}

// Err returns the first write error, if any.
func (s *JSONL) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Tee fans an event out to several sinks; nil sinks are skipped.
func Tee(sinks ...EventSink) EventSink {
	var live []EventSink
	for _, s := range sinks {
		if s != nil {
			live = append(live, s)
		}
	}
	return teeSink(live)
}

type teeSink []EventSink

// Emit implements EventSink.
func (t teeSink) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}
