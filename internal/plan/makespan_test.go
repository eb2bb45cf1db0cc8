package plan_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/workload"
)

// TestTypedMakespanMatchesGenerateTyped pins the makespan-only probe to the
// full generator over the Fig 8 corpus: every multi-job Yahoo workflow,
// every HLF/LPF/MPF ranking, and the whole TypedCapsFor ladder of the
// largest Fig 8 cluster (the proportional ladders of the smaller sizes are
// its prefixes). It also covers the failing inputs: caps with no reduce
// pool leave reduce phases unscheduled, and malformed caps or ranks fail
// validation. TypedMakespan must report GenerateTyped's makespan and fail
// exactly when it fails, with the same error.
func TestTypedMakespanMatchesGenerateTyped(t *testing.T) {
	cfg := experiments.DefaultFig8Config()
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		t.Fatal(err)
	}
	size := cfg.Sizes[len(cfg.Sizes)-1]
	cluster := plan.Caps{Maps: size, Reduces: size}
	failures := 0
	for _, w := range workload.MultiJob(flows) {
		for _, pol := range priority.All() {
			ranks, err := pol.Rank(w)
			if err != nil {
				t.Fatal(err)
			}
			check := func(caps plan.Caps, ranks []int) {
				t.Helper()
				p, gerr := plan.GenerateTyped(w, caps, pol.Name(), ranks)
				span, merr := plan.TypedMakespan(w, caps, ranks)
				switch {
				case (gerr == nil) != (merr == nil):
					t.Fatalf("%s %s %+v: GenerateTyped err %v, TypedMakespan err %v", w.Name, pol.Name(), caps, gerr, merr)
				case gerr != nil:
					failures++
					if gerr.Error() != merr.Error() {
						t.Fatalf("%s %s %+v: errors differ: %q vs %q", w.Name, pol.Name(), caps, gerr, merr)
					}
				case p.Makespan != span:
					t.Fatalf("%s %s %+v: TypedMakespan %v, GenerateTyped %v", w.Name, pol.Name(), caps, span, p.Makespan)
				}
			}
			for total := 2; total <= cluster.Total(); total++ {
				check(plan.TypedCapsFor(cluster, total), ranks)
			}
			check(plan.Caps{Maps: 3, Reduces: 0}, ranks)
			check(plan.Caps{Maps: 0, Reduces: 3}, ranks)
			check(plan.Caps{Maps: 3, Reduces: 3}, ranks[1:])
		}
	}
	if failures == 0 {
		t.Fatal("no failing input exercised")
	}
}
