package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"testing"

	"repro/internal/admission"
	"repro/internal/experiments"
	"repro/internal/simtime"
	"repro/internal/workload"
)

// The -admission-bench-out mode records the admission front door's
// rejected-vs-missed trade-off sweep (see experiments.AdmissionSweep): the
// Yahoo population run on a shrinking cluster, open-door vs behind the
// feasible controller, plus the cost of the decision path itself.

// admissionBenchReport is the JSON document -admission-bench-out writes.
type admissionBenchReport struct {
	// Controller labels the gated mode the sweep measures.
	Controller string `json:"controller"`
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	Config     struct {
		Sizes     []int   `json:"sizes"`
		Seed      int64   `json:"seed"`
		Margin    float64 `json:"plan_margin"`
		Workflows int     `json:"workflows"`
	} `json:"config"`
	Points []admissionBenchPoint `json:"points"`
	// NsPerSweepPass is the wall time of one full sweep (all sizes, both
	// doors).
	NsPerSweepPass int64 `json:"ns_per_sweep_pass"`
	// NsPerAlwaysDecision and AllocsPerAlwaysDecision measure the default
	// open-door fast path — the per-arrival overhead every uninstrumented
	// run pays; the alloc figure is pinned at 0 by make ci.
	NsPerAlwaysDecision     int64   `json:"ns_per_always_decision"`
	AllocsPerAlwaysDecision float64 `json:"allocs_per_always_decision"`
	Note                    string  `json:"note,omitempty"`
	// History preserves one entry per (controller, slots) from earlier
	// baselines, appended before the canonical points are overwritten.
	History []admissionBenchHistory `json:"history,omitempty"`
}

// admissionBenchPoint is one cluster size's outcome pair.
type admissionBenchPoint struct {
	Slots         int     `json:"slots_per_type"`
	AlwaysMiss    float64 `json:"always_miss_ratio"`
	Admitted      int     `json:"admitted"`
	Rejected      int     `json:"rejected"`
	CounterOffers int     `json:"counter_offers"`
	AdmittedMiss  float64 `json:"admitted_miss_ratio"`
	OverallMiss   float64 `json:"overall_miss_ratio"`
}

// admissionBenchHistory is one preserved point from an earlier baseline.
type admissionBenchHistory struct {
	Controller   string  `json:"controller"`
	Slots        int     `json:"slots_per_type"`
	GoMaxProcs   int     `json:"go_max_procs"`
	AlwaysMiss   float64 `json:"always_miss_ratio"`
	AdmittedMiss float64 `json:"admitted_miss_ratio"`
}

// loadAdmissionBenchHistory folds the committed report's canonical points
// into its history; each (controller, slots) pair is kept once.
func loadAdmissionBenchHistory(path string) []admissionBenchHistory {
	if path == "-" {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	var prior admissionBenchReport
	if err := json.Unmarshal(raw, &prior); err != nil {
		return nil
	}
	hist := prior.History
	seen := make(map[[2]int]bool, len(hist)+len(prior.Points))
	key := func(ctrl string, slots int) [2]int {
		h := 0
		for _, c := range ctrl {
			h = h*31 + int(c)
		}
		return [2]int{h, slots}
	}
	for _, h := range hist {
		seen[key(h.Controller, h.Slots)] = true
	}
	for _, p := range prior.Points {
		if seen[key(prior.Controller, p.Slots)] {
			continue
		}
		hist = append(hist, admissionBenchHistory{
			Controller:   prior.Controller,
			Slots:        p.Slots,
			GoMaxProcs:   prior.GoMaxProcs,
			AlwaysMiss:   p.AlwaysMiss,
			AdmittedMiss: p.AdmittedMiss,
		})
	}
	return hist
}

// runAdmissionBench executes the sweep, measures the decision fast path, and
// writes the JSON report to path ("-" for stdout),
// echoing the table through emitReport.
func runAdmissionBench(path string, out io.Writer) error {
	cfg := experiments.DefaultAdmissionSweepConfig()

	var report admissionBenchReport
	report.Controller = admission.ModeFeasible
	report.History = loadAdmissionBenchHistory(path)
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.GoVersion = runtime.Version()
	report.Config.Sizes = cfg.Sizes
	report.Config.Seed = cfg.Seed
	report.Config.Margin = cfg.Margin
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		return err
	}
	report.Config.Workflows = len(workload.MultiJob(flows))

	var res *experiments.AdmissionSweepResult
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = experiments.AdmissionSweep(cfg); err != nil {
				b.Fatalf("AdmissionSweep: %v", err)
			}
		}
	})
	report.NsPerSweepPass = r.NsPerOp()
	for _, p := range res.Points {
		report.Points = append(report.Points, admissionBenchPoint{
			Slots:         p.Size,
			AlwaysMiss:    p.AlwaysMiss,
			Admitted:      p.Admitted,
			Rejected:      p.Rejected,
			CounterOffers: p.CounterOffers,
			AdmittedMiss:  p.AdmittedMiss,
			OverallMiss:   p.OverallMiss,
		})
	}

	// The open-door fast path: one uninstrumented always-admit ruling.
	ctrl := admission.Always(nil)
	w := flows[0]
	now := simtime.Epoch
	dr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctrl.Decide(w, nil, now)
		}
	})
	report.NsPerAlwaysDecision = dr.NsPerOp()
	report.AllocsPerAlwaysDecision = testing.AllocsPerRun(1000, func() {
		ctrl.Decide(w, nil, now)
	})

	return emitReport(path, out, &report, func(out io.Writer) error {
		if err := res.Table().Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "sweep pass: %.1fms, always-admit decision: %dns, %.0f allocs (GOMAXPROCS=%d)\n",
			float64(report.NsPerSweepPass)/1e6, report.NsPerAlwaysDecision,
			report.AllocsPerAlwaysDecision, report.GoMaxProcs)
		return nil
	})
}
