package live_test

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/workflow"
)

// decisionAudit is the introspection side of the staged pipeline (see
// admission.pipeline); the equivalence test compares full decision records,
// not just the per-workflow outcome fields.
type decisionAudit interface {
	Records() []admission.Record
}

// feasibleDoor builds a fresh feasibility controller sized to fastConfig's
// cluster. Controllers are stateful, so every run gets its own.
func feasibleDoor(t *testing.T) admission.Controller {
	t.Helper()
	ctrl, err := admission.New(admission.Config{
		Cluster: plan.Caps{Maps: 8, Reduces: 4},
		Mode:    admission.ModeFeasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// encodeAdmission renders a run's decision records and per-workflow refusal
// fields canonically, one per line. Records: workflow, tenant, anchor (ns),
// free caps, verdict, reason, RetryAt (ns), CounterOffer (ns). Rows:
// workflow, rejected, reason, CounterOffer (ns), in submission order.
func encodeAdmission(recs []admission.Record, res *live.Result) []byte {
	var buf bytes.Buffer
	for _, r := range recs {
		fmt.Fprintf(&buf, "record\t%s\t%s\t%d\t%d/%d\t%s\t%q\t%d\t%d\n",
			r.Workflow, r.Tenant, int64(r.Anchor), r.Free.Maps, r.Free.Reduces,
			r.Decision.Verdict, r.Decision.Reason, int64(r.Decision.RetryAt), int64(r.Decision.CounterOffer))
	}
	for _, w := range res.Workflows {
		fmt.Fprintf(&buf, "row\t%s\t%t\t%q\t%d\n", w.Name, w.Rejected, w.RejectReason, int64(w.CounterOffer))
	}
	return buf.Bytes()
}

// TestAdmissionDecisionsAgreeAcrossLayouts runs the same released workload
// through the tracker at every shard count, each behind its own feasibility
// front door, and checks every run reproduces the committed decision records
// and per-workflow refusal fields. The anchoring contract makes this exact:
// rulings anchor at release times, not at the control-plane instants the
// heartbeats reach them.
func TestAdmissionDecisionsAgreeAcrossLayouts(t *testing.T) {
	flows := func() []*workflow.Workflow {
		return []*workflow.Workflow{
			// Admits; the ledger commits a minimal slice.
			chainFlow("w1", 0, 2*time.Hour),
			// Rejects: 60s of critical path against a 50s budget, and no
			// commitment end inside the window can save it.
			chainFlow("w2", 10*time.Second, 60*time.Second),
			// Admits at the capacity left over from w1.
			chainFlow("w3", 20*time.Second, 2*time.Hour),
		}
	}
	for _, shards := range goldenShards {
		ctrl := feasibleDoor(t)
		cfg := shardedConfig(shards)
		cfg.Admission = ctrl
		c, err := live.New(cfg, core.NewScheduler(core.Options{Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range flows() {
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		rejected := map[string]bool{}
		for _, w := range res.Workflows {
			rejected[w.Name] = w.Rejected
		}
		if !rejected["w2"] || rejected["w1"] || rejected["w3"] {
			t.Fatalf("Shards=%d: refusal pattern %v, want exactly w2 rejected", shards, rejected)
		}
		checkGolden(t, "admission_decisions.golden", shards, encodeAdmission(ctrl.(decisionAudit).Records(), res))
	}
}

// TestAdmissionLayoutsAgreeOnMultiTenantNames is the shard-count equivalence
// check for the (Tenant, Name) anchor keying: two tenants submit same-named
// workflows, one of them through a rate-limited defer chain whose anchor must
// survive the other tenant's terminal rulings on the colliding names. Every
// shard count must reproduce the committed decision records — including the
// Tenant and Anchor fields — and per-workflow outcomes.
func TestAdmissionLayoutsAgreeOnMultiTenantNames(t *testing.T) {
	door := func() admission.Controller {
		ctrl, err := admission.New(admission.Config{
			Cluster: plan.Caps{Maps: 8, Reduces: 4},
			Mode:    admission.ModeFeasible,
			Tenants: map[string]admission.Tenant{
				// One admission per 30 virtual seconds; the bucket starts full.
				"alpha": {Rate: 120, Burst: 1},
				"beta":  {},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	flows := func() []*workflow.Workflow {
		mk := func(tenant, name string, rel, deadline time.Duration) *workflow.Workflow {
			w := chainFlow(name, rel, deadline)
			w.Tenant = tenant
			return w
		}
		return []*workflow.Workflow{
			// alpha/w1 admits and burns alpha's only token.
			mk("alpha", "w1", 0, 2*time.Hour),
			// alpha/w2 is rate-limited into a defer chain anchored ~30s out.
			mk("alpha", "w2", 5*time.Second, 2*time.Hour),
			// beta reuses both names and rules terminally while alpha/w2's
			// anchor is pending; name-only keys would wipe that chain here.
			mk("beta", "w1", 10*time.Second, 2*time.Hour),
			mk("beta", "w2", 15*time.Second, 2*time.Hour),
			// Both tenants also share a hopeless name: 60s of critical path
			// against sub-60s budgets rejects in either tenant independently.
			mk("alpha", "w3", 40*time.Second, 90*time.Second),
			mk("beta", "w3", 45*time.Second, 100*time.Second),
		}
	}
	for _, shards := range goldenShards {
		ctrl := door()
		cfg := shardedConfig(shards)
		cfg.Admission = ctrl
		c, err := live.New(cfg, core.NewScheduler(core.Options{Seed: 7}))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range flows() {
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Run(ctx)
		cancel()
		if err != nil {
			t.Fatalf("Shards=%d: %v", shards, err)
		}
		recs := ctrl.(decisionAudit).Records()
		for i, w := range res.Workflows {
			if want := w.Name == "w3"; w.Rejected != want {
				t.Fatalf("Shards=%d: %s rejected = %t, want exactly the two w3 rows rejected (row %d)", shards, w.Name, w.Rejected, i)
			}
		}

		// alpha/w2's chain: a rate-limited defer followed by a retry ruling
		// anchored at the defer's RetryAt, not reset to the release — the
		// anchor survived beta's terminal rulings on the same names.
		var deferred, retried *admission.Record
		for i := range recs {
			r := &recs[i]
			if r.Tenant != "alpha" || r.Workflow != "w2" {
				continue
			}
			if r.Decision.Verdict == admission.Defer && deferred == nil {
				deferred = r
			} else if deferred != nil && retried == nil {
				retried = r
			}
		}
		if deferred == nil || retried == nil {
			t.Fatalf("Shards=%d: alpha/w2 records %+v, want a defer then a retry ruling", shards, recs)
		}
		if retried.Anchor != deferred.Decision.RetryAt {
			t.Errorf("Shards=%d: alpha/w2 retry anchored at %v, want its RetryAt %v — defer chain was reset",
				shards, retried.Anchor, deferred.Decision.RetryAt)
		}
		checkGolden(t, "admission_multitenant.golden", shards, encodeAdmission(recs, res))
	}
}
