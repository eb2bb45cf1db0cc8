package main

import (
	"fmt"
	"io"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// The -federation-bench-out mode records the federation's miss-rate-vs-
// staleness sweep (see experiments.FederationSweep): the Yahoo population
// routed over N member clusters, once per snapshot-staleness bound, plus the
// wall time of a full sweep pass.

// federationBenchReport is the JSON document -federation-bench-out writes.
type federationBenchReport struct {
	Router     string `json:"router"`
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	Config     struct {
		Clusters     int     `json:"clusters"`
		SlotsPerType int     `json:"slots_per_type_per_cluster"`
		Scheduler    string  `json:"scheduler"`
		Seed         int64   `json:"seed"`
		Margin       float64 `json:"plan_margin"`
		Workflows    int     `json:"workflows"`
	} `json:"config"`
	Points []federationBenchPoint `json:"points"`
	// NsPerSweepPass is the wall time of one full sweep (every staleness
	// bound, all member simulations).
	NsPerSweepPass int64  `json:"ns_per_sweep_pass"`
	Note           string `json:"note,omitempty"`
}

// federationBenchPoint is one staleness bound's outcome.
type federationBenchPoint struct {
	StalenessNS      int64   `json:"staleness_ns"`
	Misses           int     `json:"misses"`
	MissRatio        float64 `json:"miss_ratio"`
	MaxSnapshotAgeNS int64   `json:"max_snapshot_age_ns"`
	Routed           []int   `json:"routed_per_cluster"`
}

// runFederationBench executes the staleness sweep and writes the JSON report
// to path ("-" for stdout),
// echoing the table through emitReport.
func runFederationBench(path string, out io.Writer) error {
	cfg := experiments.DefaultFederationSweepConfig()

	var report federationBenchReport
	report.Router = cfg.Router
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.GoVersion = runtime.Version()
	report.Config.Clusters = cfg.Clusters
	report.Config.SlotsPerType = cfg.Size
	report.Config.Scheduler = cfg.Scheduler
	report.Config.Seed = cfg.Seed
	report.Config.Margin = cfg.Margin
	report.Note = "staleness is the snapshot-refresh bound: how out-of-date a member load view " +
		"the router may decide on; the population and members are identical across rows"
	flows, err := workload.Yahoo(cfg.Yahoo)
	if err != nil {
		return err
	}
	report.Config.Workflows = len(workload.MultiJob(flows))

	var res *experiments.FederationSweepResult
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var err error
			if res, err = experiments.FederationSweep(cfg); err != nil {
				b.Fatalf("FederationSweep: %v", err)
			}
		}
	})
	report.NsPerSweepPass = r.NsPerOp()
	for _, p := range res.Points {
		report.Points = append(report.Points, federationBenchPoint{
			StalenessNS:      p.Staleness.Nanoseconds(),
			Misses:           p.Misses,
			MissRatio:        p.MissRatio,
			MaxSnapshotAgeNS: p.MaxSnapshotAge.Nanoseconds(),
			Routed:           p.Routed,
		})
	}

	return emitReport(path, out, &report, func(out io.Writer) error {
		if err := res.Table().Render(out); err != nil {
			return err
		}
		fmt.Fprintf(out, "sweep pass: %.1fms (GOMAXPROCS=%d)\n",
			float64(report.NsPerSweepPass)/1e6, report.GoMaxProcs)
		return nil
	})
}
