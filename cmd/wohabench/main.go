// Command wohabench regenerates the WOHA paper's evaluation figures on the
// simulated cluster and prints each as a table. With -timeline-dir it also
// writes the Fig 14-19 slot-allocation CSVs. The Fig 11 scenario's event
// captures come from wohasim: -workload fig7 with -trace-out (a Perfetto
// trace) or -postmortem (the miss root-cause report).
//
// With -bench-out it instead benchmarks plan-generation throughput
// (sequential vs parallel vs cached planner; see internal/planner) and
// writes the numbers as JSON. With -sim-bench-out it benchmarks simulation
// throughput over the Fig 8 corpus (serial vs 8-worker runner; see
// internal/runner). With -live-bench-out it benchmarks live JobTracker
// heartbeat service under concurrent TaskTrackers (one shard vs one shard
// per core; see internal/live). With -queue-bench-out it microbenchmarks
// the four inter-workflow queue backends in isolation
// (steady-state decision round-trips at 1k/10k/100k queued workflows; see
// internal/dsl). With -admission-bench-out it runs the admission front door's
// rejected-vs-missed trade-off sweep (always-admit vs the feasible controller
// over a shrinking cluster; see internal/experiments.AdmissionSweep). With
// -federation-bench-out it runs the federation's miss-rate-vs-staleness sweep
// (the Yahoo population routed over member clusters with bounded-staleness
// load snapshots; see internal/experiments.FederationSweep).
//
// Usage:
//
//	wohabench [-fig all|2|3|5|6|8|9|10|11|12|13a|13b] [-timeline-dir DIR]
//	wohabench -bench-out BENCH_plan.json
//	wohabench -sim-bench-out BENCH_sim.json
//	wohabench -live-bench-out BENCH_live.json
//	wohabench -queue-bench-out BENCH_queue.json
//	wohabench -admission-bench-out BENCH_admission.json
//	wohabench -federation-bench-out BENCH_federation.json
//
// Each -*-bench-out flag takes "-" to print the JSON report on stdout; the
// text summary then goes to stderr, so stdout parses as JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	woha "repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/planner"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13a, 13b, ablations)")
	timelineDir := flag.String("timeline-dir", "", "directory to write Fig 14-19 CSVs into (empty = skip)")
	benchOut := flag.String("bench-out", "", "benchmark plan-generation throughput and write the JSON report to this file (- for stdout); skips the figure sweep")
	simBenchOut := flag.String("sim-bench-out", "", "benchmark simulation throughput over the Fig 8 corpus (serial vs 8 workers) and write the JSON report to this file (- for stdout); skips the figure sweep")
	liveBenchOut := flag.String("live-bench-out", "", "benchmark live JobTracker heartbeat service under concurrent trackers (one shard vs GOMAXPROCS shards, or 4 below 2 cores) and write the JSON report to this file (- for stdout); skips the figure sweep")
	queueBenchOut := flag.String("queue-bench-out", "", "microbenchmark the four inter-workflow queue backends (steady-state decision round-trips at 1k/10k/100k queued workflows) and write the JSON report to this file (- for stdout); skips the figure sweep")
	admBenchOut := flag.String("admission-bench-out", "", "run the admission rejected-vs-missed trade-off sweep (always-admit vs feasible front door over a shrinking cluster) and write the JSON report to this file (- for stdout); skips the figure sweep")
	fedBenchOut := flag.String("federation-bench-out", "", "run the federation miss-rate-vs-staleness sweep (Yahoo population routed over member clusters with bounded-staleness load snapshots) and write the JSON report to this file (- for stdout); skips the figure sweep")
	metricsAddr := flag.String("metrics-addr", "", "serve the introspection plane (/metrics, /statusz, /debug/pprof) on this address during the run (e.g. :8080; :0 picks a free port) and print a final scrape")
	flag.Parse()

	var (
		ins *woha.Instrumentation
		srv *woha.IntrospectionServer
	)
	if *metricsAddr != "" {
		ins = woha.NewInstrumentation(woha.NewMetrics(), nil)
		ins.EnableHealth(woha.HealthConfig{})
		var err error
		srv, err = woha.ServeIntrospection(*metricsAddr, ins)
		if err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		fmt.Printf("introspection: serving http://%s/metrics, /statusz, /debug/pprof/\n", srv.Addr())
	}
	finish := func() {
		if srv == nil {
			return
		}
		if err := srv.DumpMetrics(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
	}

	if *benchOut != "" {
		if err := runPlanBench(*benchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *simBenchOut != "" {
		if err := runSimBench(*simBenchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *liveBenchOut != "" {
		if err := runLiveBench(*liveBenchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *queueBenchOut != "" {
		if err := runQueueBench(*queueBenchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *admBenchOut != "" {
		if err := runAdmissionBench(*admBenchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if *fedBenchOut != "" {
		if err := runFederationBench(*fedBenchOut, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "wohabench:", err)
			os.Exit(1)
		}
		finish()
		return
	}

	if err := run(*fig, *timelineDir, os.Stdout, ins); err != nil {
		fmt.Fprintln(os.Stderr, "wohabench:", err)
		os.Exit(1)
	}
	finish()
}

var validFigs = map[string]bool{
	"all": true, "2": true, "3": true, "5": true, "6": true, "8": true,
	"9": true, "10": true, "11": true, "12": true, "13a": true, "13b": true,
	"ablations": true,
}

func run(fig, timelineDir string, out io.Writer, ins *woha.Instrumentation) error {
	if !validFigs[fig] {
		return fmt.Errorf("unknown figure %q (want one of all, 2, 3, 5, 6, 8, 9, 10, 11, 12, 13a, 13b, ablations)", fig)
	}
	want := func(names ...string) bool {
		if fig == "all" {
			return true
		}
		for _, n := range names {
			if fig == n {
				return true
			}
		}
		return false
	}

	// One coalescing plan service spans every figure's cells: within a sweep
	// each distinct (shape, caps, policy) key is simulated exactly once, and
	// across figures recurring templates — Fig 12 re-running the Fig 11
	// workload with three recurrences, say — are served from the same cache.
	// With -metrics-addr the sweep reuses the served instrumentation, so the
	// planner and runner counters land on the live /metrics endpoint.
	sweepObs := (*obs.Obs)(ins)
	if sweepObs == nil {
		sweepObs = obs.New(obs.NewRegistry(), nil)
	}
	pl := planner.New(planner.Config{CacheSize: 4096, Margin: experiments.PlanMargin, Obs: sweepObs})

	if want("2") {
		res, err := experiments.Fig2()
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("3") {
		res, err := experiments.Fig3(experiments.DefaultFig3Config())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("5", "6") {
		res := experiments.Fig56(experiments.DefaultFig56Config())
		if want("5") {
			if err := res.Fig5Table().Render(out); err != nil {
				return err
			}
		}
		if want("6") {
			if err := res.Fig6Table().Render(out); err != nil {
				return err
			}
		}
	}
	if want("8", "9", "10") {
		cfg := experiments.DefaultFig8Config()
		cfg.Planner = pl
		cfg.Obs = sweepObs
		var res *experiments.Fig8Result
		var err error
		if want("8") {
			// Stream Fig 8 row by row: each scheduler's line prints as soon
			// as its three cells finish, while the remaining schedulers are
			// still simulating — byte-identical to MissTable().Render on the
			// completed sweep.
			tw, twErr := experiments.NewTableWriter(out, experiments.Fig8MissTitle, "", cfg.SizesHeader())
			if twErr != nil {
				return twErr
			}
			res, err = experiments.Fig8Each(cfg, func(row experiments.Fig8Row) error {
				cells := []string{row.Scheduler}
				for _, v := range row.MissRatio {
					cells = append(cells, fmt.Sprintf("%.3f", v))
				}
				return tw.Row(cells)
			})
			if err == nil {
				err = tw.Close()
			}
		} else {
			res, err = experiments.Fig8(cfg)
		}
		if err != nil {
			return err
		}
		if want("9") {
			if err := res.MaxTardTable().Render(out); err != nil {
				return err
			}
		}
		if want("10") {
			if err := res.TotalTardTable().Render(out); err != nil {
				return err
			}
		}
	}
	if want("11") || timelineDir != "" {
		cfg := experiments.DefaultFig11Config()
		cfg.Planner = pl
		cfg.Obs = sweepObs
		res, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		if want("11") {
			if err := res.WorkspanTable().Render(out); err != nil {
				return err
			}
		}
		if timelineDir != "" {
			if err := os.MkdirAll(timelineDir, 0o755); err != nil {
				return err
			}
			err := res.WriteTimelines(func(stem string) (io.WriteCloser, error) {
				return os.Create(filepath.Join(timelineDir, stem+".csv"))
			})
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "Fig 14-19 timelines written to %s\n\n", timelineDir)
		}
	}
	if want("12") {
		cfg := experiments.DefaultFig11Config()
		cfg.Recurrences = 3
		cfg.Planner = pl
		cfg.Obs = sweepObs
		res, err := experiments.Fig11(cfg)
		if err != nil {
			return err
		}
		if err := res.UtilizationTable().Render(out); err != nil {
			return err
		}
	}
	if want("13a") {
		res := experiments.Fig13a(experiments.DefaultFig13aConfig())
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	if want("ablations") {
		f11, err := experiments.AblationsFig11()
		if err != nil {
			return err
		}
		if err := experiments.AblationTable("Ablations: simulator knobs (Fig 11 scenario, WOHA-LPF)", f11).Render(out); err != nil {
			return err
		}
		yah, err := experiments.AblationsYahoo()
		if err != nil {
			return err
		}
		if err := experiments.AblationTable("Ablations: policy knobs (Yahoo workload, 240m-240r, WOHA-LPF)", yah).Render(out); err != nil {
			return err
		}
	}
	if want("13b") {
		res, err := experiments.Fig13b(experiments.DefaultFig13bConfig())
		if err != nil {
			return err
		}
		if err := res.Table().Render(out); err != nil {
			return err
		}
	}
	return nil
}

// emitReport writes report as indented JSON to path, or to out when path is
// "-", then has summary print the human-readable echo. The echo goes to out
// after a file report (followed by where the file went) and to stderr when
// the JSON itself went to out, so "-" output parses as one JSON document.
func emitReport(path string, out io.Writer, report any, summary func(io.Writer) error) error {
	doc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if path == "-" {
		if _, err := out.Write(doc); err != nil {
			return err
		}
		return summary(os.Stderr)
	}
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		return err
	}
	if err := summary(out); err != nil {
		return err
	}
	fmt.Fprintf(out, "report written to %s\n", path)
	return nil
}
