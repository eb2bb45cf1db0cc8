package main

import (
	"io"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	woha "repro"
)

// TestAdmissionSmoke overloads a small cluster behind the feasibility front
// door and asserts the refusal surface end to end: the seeded workload
// produces at least one rejection, every rejection names the refusing stage
// and carries a counter-offer past the asked deadline, and every admitted
// workflow meets its deadline (the trade-off the front door exists to buy).
func TestAdmissionSmoke(t *testing.T) {
	s, err := parseSpec(strings.Fields("-nodes 2 -map-slots 2 -reduce-slots 1 -seed 1 -admission feasible"), io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ins := woha.NewInstrumentation(nil, nil)
	var flows []*woha.Workflow
	for i := 0; i < 4; i++ {
		rel := time.Duration(i) * 50 * time.Second
		flows = append(flows, woha.NewWorkflow("w"+string(rune('1'+i))).
			Job("crunch", 8, 2, 100*time.Second, 100*time.Second).
			MustBuild(woha.At(rel), woha.At(rel+600*time.Second)))
	}
	plans, err := s.plan(flows, woha.NewPlanner(woha.WithInstrumentation(ins)))
	if err != nil {
		t.Fatal(err)
	}
	sim, adm, err := s.newMember(ins, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Release()
	if adm == nil {
		t.Fatal("-admission feasible built no controller")
	}
	if err := submitAll(flows, plans, ins, sim.Submit); err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejections() == 0 {
		t.Fatalf("seeded overload produced no rejections: %+v", res.Workflows)
	}
	for _, w := range res.Workflows {
		if w.Rejected {
			if w.RejectReason == "" {
				t.Errorf("%s: rejection without a reason", w.Name)
			}
			if w.CounterOffer <= w.Deadline {
				t.Errorf("%s: counter-offer %v not past the asked deadline %v", w.Name, w.CounterOffer, w.Deadline)
			}
			if got := outcomeLabel(w, "no"); !strings.Contains(got, "REJECTED") || !strings.Contains(got, "counter-offer") {
				t.Errorf("%s: outcome label %q missing refusal fields", w.Name, got)
			}
			continue
		}
		if !w.Met {
			t.Errorf("%s: admitted but missed its deadline by %v", w.Name, w.Tardiness)
		}
	}
	if res.AdmittedMissRatio() != 0 {
		t.Errorf("AdmittedMissRatio = %v, want 0", res.AdmittedMissRatio())
	}
}

// TestAdmissionAcrossClusters runs the front door on every federated
// member: each member rules on the workflows routed to it, so the members'
// admitted and rejected counts add up to the whole workload, and each
// member prints its own summary.
func TestAdmissionAcrossClusters(t *testing.T) {
	out := runArgs(t, "-workload", "yahoo", "-clusters", "2", "-nodes", "30",
		"-admission", "feasible", "-tenants", "a:quota=0.6;b:rate=20,burst=3")
	total := regexp.MustCompile(`misses \d+/(\d+) `).FindStringSubmatch(out)
	if total == nil {
		t.Fatalf("no federation summary line:\n%s", out)
	}
	want, _ := strconv.Atoi(total[1])
	summaries := regexp.MustCompile(`(?m)^    admission feasible: (\d+) admitted, (\d+) rejected`).FindAllStringSubmatch(out, -1)
	if len(summaries) != 2 {
		t.Fatalf("%d admission summaries, want one per member:\n%s", len(summaries), out)
	}
	got := 0
	for _, m := range summaries {
		admitted, _ := strconv.Atoi(m[1])
		rejected, _ := strconv.Atoi(m[2])
		got += admitted + rejected
	}
	if got != want || want == 0 {
		t.Errorf("admitted + rejected = %d across members, want %d workflows", got, want)
	}
	if !strings.Contains(out, "REJECTED (") {
		t.Errorf("no member rejected anything; the run does not exercise the front door:\n%s", out)
	}
}
