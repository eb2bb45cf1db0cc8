package admission

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// TestDeferralLimitRejects forces a workflow's defer count to the cap and
// checks the next ruling rejects instead of deferring forever.
func TestDeferralLimitRejects(t *testing.T) {
	ctrl, err := New(Config{
		Mode:    ModeTokenBucket,
		Tenants: map[string]Tenant{"t": {Rate: 1, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ctrl.(*pipeline)
	w := workflow.NewBuilder("w").
		Job("j", 1, 0, time.Second, 0).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(time.Hour))
	w.Tenant = "t"
	p.anchors[keyOf(w)] = anchor{at: w.Release, defers: maxDeferrals}
	d := p.Decide(w, nil, w.Release)
	if d.Verdict != Reject || d.Reason != "deferral-limit" {
		t.Fatalf("Decide = %+v, want deferral-limit reject", d)
	}
	if _, ok := p.anchors[keyOf(w)]; ok {
		t.Error("terminal ruling left the anchor behind")
	}
}

// TestTenantAnchorsIndependent pins the (Tenant, Name) anchor keying: two
// tenants submitting same-named workflows must carry independent defer
// chains. Under the old name-only keys this fails three ways — one tenant's
// terminal ruling dropped the other's pending anchor (resetting its retry
// instant to the release), both chains shared one maxDeferrals budget, and a
// deferral-limit hit on one tenant rejected the other outright.
func TestTenantAnchorsIndependent(t *testing.T) {
	ctrl, err := New(Config{
		Mode: ModeTokenBucket,
		Tenants: map[string]Tenant{
			"a": {Rate: 1, Burst: 1},
			"b": {Rate: 1, Burst: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ctrl.(*pipeline)
	mk := func(tenant string, name string) *workflow.Workflow {
		w := workflow.NewBuilder(name).
			Job("j", 1, 0, time.Second, 0).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(100*time.Hour))
		w.Tenant = tenant
		return w
	}

	// Drain tenant a's bucket, then defer a's "job".
	if d := p.Decide(mk("a", "warmup"), nil, 0); d.Verdict != Admit {
		t.Fatalf("warmup = %+v, want admit", d)
	}
	first := p.Decide(mk("a", "job"), nil, 0)
	if first.Verdict != Defer {
		t.Fatalf("tenant a job = %+v, want rate-limited defer", first)
	}

	// Tenant b's same-named workflow admits on its own full bucket; that
	// terminal ruling must not touch tenant a's pending anchor.
	if d := p.Decide(mk("b", "job"), nil, 0); d.Verdict != Admit {
		t.Fatalf("tenant b job = %+v, want admit", d)
	}
	a, ok := p.anchors[wfKey{tenant: "a", name: "job"}]
	if !ok || a.at != first.RetryAt || a.defers != 1 {
		t.Fatalf("tenant a anchor after b's admit = %+v,%v, want {%v 1},true",
			a, ok, first.RetryAt)
	}

	// A retry ruling for a's workflow anchors at its own retry instant.
	retry := p.Decide(mk("a", "job"), nil, first.RetryAt)
	recs := p.Records()
	if got := recs[len(recs)-1].Anchor; got != first.RetryAt {
		t.Errorf("retry anchored at %v, want %v", got, first.RetryAt)
	}
	if retry.Verdict != Admit { // bucket refilled over the ~1h wait
		t.Fatalf("retry = %+v, want admit", retry)
	}

	// Deferral budgets are per tenant: a's exhausted chain must not reject
	// b's same-named submission.
	p.anchors[wfKey{tenant: "a", name: "job2"}] = anchor{defers: maxDeferrals}
	p.buckets["b"].tokens = 1
	if d := p.Decide(mk("b", "job2"), nil, 0); d.Verdict == Reject {
		t.Fatalf("tenant b job2 = %+v; tenant a's deferral budget leaked across tenants", d)
	}
}

// TestAnchorMapDrainsAfterTerminalRulings is the leak regression: 1k
// deferred submissions across two tenants with colliding names are driven to
// their terminal deferral-limit reject, and the anchor and probe-memo maps
// must end empty — every terminal path clears both entries, so a long-lived
// daemon's maps stay bounded by the currently-deferred population. The
// feasible pipeline puts tenant b's admits through the feasibility stage, so
// each of them builds a memo that its terminal admit must drop.
func TestAnchorMapDrainsAfterTerminalRulings(t *testing.T) {
	const n = 1000
	ctrl, err := New(Config{
		Cluster: plan.Caps{Maps: n + 10, Reduces: n + 10},
		Mode:    ModeFeasible,
		Tenants: map[string]Tenant{"a": {Rate: 1, Burst: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := ctrl.(*pipeline)
	mk := func(tenant string, i int) *workflow.Workflow {
		w := workflow.NewBuilder(fmt.Sprintf("wf-%d", i)).
			Job("j", 1, 0, time.Second, 0).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(100*time.Hour))
		w.Tenant = tenant
		return w
	}

	// Empty tenant a's bucket, then park n submissions in deferred state.
	if d := p.Decide(mk("a", -1), nil, 0); d.Verdict != Admit {
		t.Fatalf("warmup = %+v, want admit", d)
	}
	for i := 0; i < n; i++ {
		if d := p.Decide(mk("a", i), nil, 0); d.Verdict != Defer {
			t.Fatalf("wf-%d = %+v, want defer", i, d)
		}
	}
	if got := p.anchorCount(); got != n {
		t.Fatalf("anchorCount = %d after %d deferrals, want %d", got, n, n)
	}

	// Tenant b (unlimited) runs same-named workflows to terminal admits;
	// with name-only keys these wiped tenant a's pending chains.
	for i := 0; i < n; i++ {
		if d := p.Decide(mk("b", i), nil, 0); d.Verdict != Admit {
			t.Fatalf("tenant b wf-%d = %+v, want admit", i, d)
		}
	}
	if got := p.anchorCount(); got != n {
		t.Fatalf("anchorCount = %d after tenant b's admits, want %d untouched", got, n)
	}
	if got := p.memoCount(); got != 0 {
		t.Fatalf("memoCount = %d after tenant b's terminal admits, want 0", got)
	}

	// Drive every deferred chain to its terminal deferral-limit reject and
	// demand the map drains completely.
	p.mu.Lock()
	for k, a := range p.anchors {
		p.anchors[k] = anchor{at: a.at, defers: maxDeferrals}
	}
	p.mu.Unlock()
	for i := 0; i < n; i++ {
		if d := p.Decide(mk("a", i), nil, 0); d.Verdict != Reject || d.Reason != "deferral-limit" {
			t.Fatalf("wf-%d = %+v, want deferral-limit reject", i, d)
		}
	}
	if got := p.anchorCount(); got != 0 {
		t.Fatalf("anchorCount = %d after every chain terminated, want 0", got)
	}
	if got := p.memoCount(); got != 0 {
		t.Fatalf("memoCount = %d after every chain terminated, want 0", got)
	}
}

// deferredOnFullCluster builds a feasible pipeline on a 4-map/2-reduce
// cluster whose whole capacity is committed to w1 over [0s, 300s), then
// rules on w3 (released at 50s, 300s of work at full capacity, deadline
// 700s): it starves until w1 ends, so it defers awaiting capacity to 300s.
func deferredOnFullCluster(t *testing.T) (*pipeline, *workflow.Workflow) {
	t.Helper()
	ctrl, err := New(Config{Cluster: plan.Caps{Maps: 4, Reduces: 2}, Mode: ModeFeasible})
	if err != nil {
		t.Fatal(err)
	}
	p := ctrl.(*pipeline)
	w1 := workflow.NewBuilder("w1").
		Job("j", 8, 2, 100*time.Second, 100*time.Second).
		MustBuild(simtime.Epoch, simtime.Epoch.Add(320*time.Second))
	if d := p.Decide(w1, nil, w1.Release); d.Verdict != Admit {
		t.Fatalf("w1 = %+v, want admit", d)
	}
	w3 := workflow.NewBuilder("w3").
		Job("j", 8, 2, 100*time.Second, 100*time.Second).
		MustBuild(simtime.Epoch.Add(50*time.Second), simtime.Epoch.Add(700*time.Second))
	if d := p.Decide(w3, nil, w3.Release); d.Verdict != Defer || d.Reason != "awaiting-capacity" {
		t.Fatalf("w3 = %+v, want awaiting-capacity defer", d)
	}
	return p, w3
}

// TestWarmReRulingRunsNoSimulation pins the probe memo's purpose: ruling
// again on a deferred submission against an unchanged ledger reaches the
// same verdict without a single new typed simulation (every simulation the
// memo runs appends one span). A terminal ruling then drops the memo.
func TestWarmReRulingRunsNoSimulation(t *testing.T) {
	p, w := deferredOnFullCluster(t)
	k := keyOf(w)
	m := p.memos[k]
	if m == nil || len(m.spans) == 0 {
		t.Fatalf("deferred ruling left memo %+v, want probed spans", m)
	}
	sims := len(m.spans)
	first := p.records[len(p.records)-1]

	// Rewind the anchor to the first ruling's instant: same ledger, same
	// window, so the re-ruling must be served entirely from the memo.
	p.anchors[k] = anchor{at: w.Release, defers: 1}
	d := p.Decide(w, nil, w.Release)
	if got := p.records[len(p.records)-1]; got != first || d != first.Decision {
		t.Fatalf("re-ruling %+v (record %+v), want the first ruling %+v", d, got, first)
	}
	if p.memos[k] != m || len(m.spans) != sims {
		t.Fatalf("re-ruling ran %d new simulations, want 0", len(m.spans)-sims)
	}

	p.anchors[k] = anchor{at: w.Release, defers: maxDeferrals}
	if d := p.Decide(w, nil, w.Release); d.Verdict != Reject || d.Reason != "deferral-limit" {
		t.Fatalf("Decide = %+v, want deferral-limit reject", d)
	}
	if got := p.memoCount(); got != 0 {
		t.Fatalf("memoCount = %d after the terminal ruling, want 0", got)
	}
}

// TestWarmReRulingAllocs pins the warm re-ruling of a deferred submission
// at zero allocations: memo hits, the ledger's reused EndsWithin buffer and
// FreeOver's value results leave nothing to allocate (make alloc-pins).
func TestWarmReRulingAllocs(t *testing.T) {
	if RaceEnabled {
		t.Skip("race runtime inflates allocation counts; pin holds in regular builds")
	}
	p, w := deferredOnFullCluster(t)
	k := keyOf(w)
	p.records = slices.Grow(p.records, 2000) // keep the audit log's growth out of the count
	if got := testing.AllocsPerRun(1000, func() {
		p.anchors[k] = anchor{at: w.Release, defers: 1}
		p.Decide(w, nil, w.Release)
	}); got != 0 {
		t.Errorf("%v allocs per warm re-ruling, want 0", got)
	}
}

// TestMemoReplacedForNewWorkflow pins the memo's identity check: a
// different *Workflow submitted under a deferred submission's (tenant,
// name) is a new job set, so its ruling must replace the entry rather than
// read makespans simulated for the old one.
func TestMemoReplacedForNewWorkflow(t *testing.T) {
	p, old := deferredOnFullCluster(t)
	k := keyOf(old)
	// Same name, twice the map work: 500s at full capacity instead of 300s.
	// Ruled at the old chain's first instant it still starves until w1
	// ends, and the later deadline lets it defer, keeping its memo alive.
	w := workflow.NewBuilder(old.Name).
		Job("j", 16, 2, 100*time.Second, 100*time.Second).
		MustBuild(old.Release, simtime.Epoch.Add(900*time.Second))
	p.anchors[k] = anchor{at: old.Release, defers: 1}
	if d := p.Decide(w, nil, w.Release); d.Verdict != Defer {
		t.Fatalf("new submission = %+v, want defer", d)
	}
	m := p.memos[k]
	if m == nil || m.w != w {
		t.Fatalf("memo after the new submission = %+v, want an entry for the new workflow", m)
	}
	ranks, err := p.cfg.Policy.Rank(w)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.spans) == 0 {
		t.Fatal("new submission's memo has no spans")
	}
	for _, s := range m.spans {
		want, err := plan.TypedMakespan(w, s.caps, ranks)
		if err != nil || s.makespan != want {
			t.Errorf("memo span at %+v = %v, want %v (err %v): stale entry served", s.caps, s.makespan, want, err)
		}
	}
}

// TestBucketRefillClamped pins the bucket's out-of-order safety: an anchor
// earlier than the last refill neither rewinds the clock nor double-refills.
func TestBucketRefillClamped(t *testing.T) {
	b := &bucket{rate: 1.0 / float64(time.Hour), burst: 2, tokens: 0, last: simtime.Epoch.Add(time.Hour)}
	b.refill(simtime.Epoch) // earlier than last: must be a no-op
	if b.tokens != 0 || b.last != simtime.Epoch.Add(time.Hour) {
		t.Fatalf("out-of-order refill mutated bucket: tokens=%v last=%v", b.tokens, b.last)
	}
	b.refill(simtime.Epoch.Add(2 * time.Hour))
	if b.tokens != 1 {
		t.Fatalf("tokens = %v after 1h refill at rate 1/h, want 1", b.tokens)
	}
	b.refill(simtime.Epoch.Add(10 * time.Hour))
	if b.tokens != 2 {
		t.Fatalf("tokens = %v, want clamped at burst 2", b.tokens)
	}
	if w := b.wait(simtime.Epoch.Add(10 * time.Hour)); w != 0 {
		t.Fatalf("wait = %v with a full bucket, want 0", w)
	}
	b.take(simtime.Epoch.Add(10 * time.Hour))
	b.take(simtime.Epoch.Add(10 * time.Hour))
	if w := b.wait(simtime.Epoch.Add(10 * time.Hour)); w < time.Hour-time.Second || w > time.Hour+time.Second {
		t.Fatalf("wait = %v with an empty bucket, want ~1h", w)
	}
}
