package admission_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/admission"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/federation"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata goldens from the current code")

// encodeRecords renders a controller's audit log canonically, one ruling
// per line: member, workflow, tenant, anchor (ns), free caps, verdict,
// reason, RetryAt (ns), CounterOffer (ns).
func encodeRecords(buf *bytes.Buffer, member int, recs []admission.Record) {
	for _, r := range recs {
		fmt.Fprintf(buf, "%d\t%s\t%s\t%d\t%d/%d\t%s\t%q\t%d\t%d\n",
			member, r.Workflow, r.Tenant, int64(r.Anchor), r.Free.Maps, r.Free.Reduces,
			r.Decision.Verdict, r.Decision.Reason, int64(r.Decision.RetryAt), int64(r.Decision.CounterOffer))
	}
}

// overloadedFederation runs a seeded overload — the Yahoo population ×3
// over a 10-minute window — through two heartbeat-driven members with
// noise, stragglers and speculation, each behind its own feasible
// controller. It returns every member's Record stream in canonical encoding
// plus the per-class ruling counts.
func overloadedFederation(t *testing.T) ([]byte, map[string]int) {
	t.Helper()
	cfg := workload.DefaultYahooConfig()
	cfg.Seed = 7
	cfg.Workflows, cfg.Jobs, cfg.SingleJob = 3*cfg.Workflows, 3*cfg.Jobs, 3*cfg.SingleJob
	cfg.ReleaseWindow = 10 * time.Minute
	flows, err := workload.Yahoo(cfg)
	if err != nil {
		t.Fatal(err)
	}
	flows = workload.MultiJob(flows)

	cc := cluster.Config{
		Nodes:               10,
		MapSlotsPerNode:     2,
		ReduceSlotsPerNode:  2,
		HeartbeatInterval:   3 * time.Second,
		Noise:               0.2,
		StragglerProb:       0.05,
		StragglerFactor:     3,
		SpeculativeSlowdown: 1.5,
		Seed:                1,
	}
	caps := plan.Caps{Maps: cc.MapSlots(), Reduces: cc.ReduceSlots()}
	spec, err := experiments.SchedulerByName("WOHA-LPF")
	if err != nil {
		t.Fatal(err)
	}
	const members = 2
	sims := make([]*cluster.Simulator, members)
	ctrls := make([]admission.Controller, members)
	for m := range sims {
		if sims[m], err = cluster.New(cc, spec.New(1), nil); err != nil {
			t.Fatal(err)
		}
		defer sims[m].Release()
		if ctrls[m], err = admission.New(admission.Config{Cluster: caps, Mode: admission.ModeFeasible}); err != nil {
			t.Fatal(err)
		}
		sims[m].SetAdmission(ctrls[m])
	}
	fed, err := federation.New(federation.Config{Router: federation.SlackAware{}, SnapshotRefresh: 30 * time.Second}, sims)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range flows {
		p, err := plan.GenerateCappedTyped(w, caps, priority.LPF{}, 0.85)
		if err != nil {
			t.Fatal(err)
		}
		if err := fed.Submit(w, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fed.Run(); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	counts := map[string]int{}
	for m, c := range ctrls {
		recs := c.(auditor).Records()
		encodeRecords(&buf, m, recs)
		for _, r := range recs {
			key := r.Decision.Verdict.String() + "/" + r.Decision.Reason
			if r.Decision.Verdict == admission.Reject && r.Decision.CounterOffer > 0 {
				key += "+offer"
			}
			counts[key]++
		}
	}
	return buf.Bytes(), counts
}

// TestRecordStreamGolden pins every ruling of a seeded overloaded federation
// byte for byte: anchors, free caps, verdicts, reasons, retry instants and
// counter-offers. The scenario reaches every ruling class the feasibility
// front door has — admits, awaiting-capacity defers, infeasible rejects with
// counter-offers, and deferral-limit rejects — so any change to how rulings
// are computed must leave their outcomes untouched. Regenerate with
// go test ./internal/admission -run TestRecordStreamGolden -update.
func TestRecordStreamGolden(t *testing.T) {
	got, counts := overloadedFederation(t)
	for _, class := range []string{"admit/", "defer/awaiting-capacity", "reject/infeasible+offer", "reject/deferral-limit"} {
		if counts[class] == 0 {
			t.Errorf("scenario produced no %q rulings (counts %v)", class, counts)
		}
	}
	path := filepath.Join("testdata", "records.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes, counts %v)", path, len(got), counts)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("record stream diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("record stream has %d lines, golden %d", len(gl), len(wl))
	}
}
