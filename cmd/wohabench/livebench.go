package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// The -live-bench-out mode measures JobTracker heartbeat service under
// concurrent TaskTrackers: N goroutines hammer DeliverHeartbeat directly
// (no transport, no tracker sleep loop), mostly with busy reports and every
// eighth beat completing its held tasks and offering slots — the mix a
// loaded Hadoop master sees. The tracker with one shard (Shards=1) is
// compared against the sharded tracker (Shards=GOMAXPROCS) at 1, 4, 16, and
// 64 trackers.

// liveBenchReport is the JSON document -live-bench-out writes.
type liveBenchReport struct {
	// GoMaxProcs records the core budget: with one core, concurrent
	// trackers interleave instead of running in parallel, so more shards
	// can only show lower synchronization overhead, not scaling.
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	// ShardsSharded is the shard count the "sharded" modes ran with.
	ShardsSharded int `json:"shards_sharded"`
	Workload      struct {
		Workflows          int `json:"workflows"`
		MapsPerWorkflow    int `json:"maps_per_workflow"`
		ReducesPerWorkflow int `json:"reduces_per_workflow"`
		BeatsPerTracker    int `json:"beats_per_tracker"`
	} `json:"workload"`
	Modes []liveBenchMode `json:"modes"`
	Note  string          `json:"note,omitempty"`
}

type liveBenchMode struct {
	Name             string  `json:"name"`
	Shards           int     `json:"shards"`
	Trackers         int     `json:"trackers"`
	HeartbeatsPerSec float64 `json:"heartbeats_per_sec"`
	P50Ns            int64   `json:"heartbeat_p50_ns"`
	P99Ns            int64   `json:"heartbeat_p99_ns"`
}

const (
	liveBenchFlows   = 64
	liveBenchMaps    = 800
	liveBenchReduces = 100
	liveBenchBeats   = 2000
)

// liveBenchCluster builds a cluster with the benchmark workload registered
// and the clock stamped (first heartbeat admits every workflow), so the
// measured loop sees steady-state traffic.
func liveBenchCluster(shards int) (*live.Cluster, error) {
	cfg := live.Config{
		Nodes:              1,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		HeartbeatInterval:  time.Millisecond,
		TimeScale:          0.001,
		Shards:             shards,
	}
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		return nil, err
	}
	for i := 0; i < liveBenchFlows; i++ {
		w := workflow.NewBuilder(fmt.Sprintf("bench-%02d", i)).
			Job("j", liveBenchMaps, liveBenchReduces, 10*time.Second, 20*time.Second).
			MustBuild(simtime.Epoch, simtime.Epoch.Add(1000*time.Hour))
		if err := c.Submit(w, nil); err != nil {
			return nil, err
		}
	}
	c.DeliverHeartbeat(live.Heartbeat{Tracker: 0})
	return c, nil
}

// liveBenchMeasure runs one (shard-count, tracker-count) cell and reports
// throughput and latency percentiles across every heartbeat served.
func liveBenchMeasure(name string, shards, trackers int) (liveBenchMode, error) {
	c, err := liveBenchCluster(shards)
	if err != nil {
		return liveBenchMode{}, err
	}
	lat := make([][]int64, trackers)
	var wg sync.WaitGroup
	start := time.Now()
	for tr := 0; tr < trackers; tr++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			ls := make([]int64, 0, liveBenchBeats)
			var held []live.TaskID
			for i := 0; i < liveBenchBeats; i++ {
				hb := live.Heartbeat{Tracker: tr}
				if i%8 == 0 {
					// Refill beat: report the held completions, take new work.
					// Hand the tracker an owned copy — this loop truncates and
					// re-appends into held's backing array right away, so
					// passing held itself would mutate the slice mid-delivery
					// if the cluster reads it beyond the synchronous
					// completion pass (see live.Heartbeat's ownership note).
					hb.FreeMaps, hb.FreeReds = 2, 1
					hb.Completed = append([]live.TaskID(nil), held...)
					held = held[:0]
				}
				t0 := time.Now()
				out := c.DeliverHeartbeat(hb)
				ls = append(ls, time.Since(t0).Nanoseconds())
				for _, a := range out {
					held = append(held, a.ID)
				}
			}
			// Hand back anything still held so the tracker state stays sane.
			c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, Completed: held})
			lat[tr] = ls
		}(tr)
	}
	wg.Wait()
	wall := time.Since(start)

	var merged []int64
	for _, ls := range lat {
		merged = append(merged, ls...)
	}
	sort.Slice(merged, func(i, j int) bool { return merged[i] < merged[j] })
	n := len(merged)
	return liveBenchMode{
		Name:             name,
		Shards:           shards,
		Trackers:         trackers,
		HeartbeatsPerSec: float64(n) / wall.Seconds(),
		P50Ns:            merged[n/2],
		P99Ns:            merged[n*99/100],
	}, nil
}

// runLiveBench sweeps both shard counts across the tracker counts and
// writes the JSON report to path ("-" for stdout),
// echoing a summary through emitReport.
func runLiveBench(path string, out io.Writer) error {
	var report liveBenchReport
	report.GoMaxProcs = runtime.GOMAXPROCS(0)
	report.GoVersion = runtime.Version()
	report.ShardsSharded = report.GoMaxProcs
	if report.ShardsSharded < 2 {
		// Still exercise the sharded pipeline; without cores the comparison
		// shows synchronization overhead, not parallel speedup.
		report.ShardsSharded = 4
		report.Note = fmt.Sprintf("measured with GOMAXPROCS=%d: concurrent trackers interleave on one core, so one-shard-vs-sharded deltas reflect per-heartbeat synchronization cost only; re-baseline on a multi-core host to see contention relief", report.GoMaxProcs)
	}
	report.Workload.Workflows = liveBenchFlows
	report.Workload.MapsPerWorkflow = liveBenchMaps
	report.Workload.ReducesPerWorkflow = liveBenchReduces
	report.Workload.BeatsPerTracker = liveBenchBeats

	for _, trackers := range []int{1, 4, 16, 64} {
		for _, mode := range []struct {
			name   string
			shards int
		}{
			{"one-shard", 1},
			{"sharded", report.ShardsSharded},
		} {
			m, err := liveBenchMeasure(mode.name, mode.shards, trackers)
			if err != nil {
				return err
			}
			report.Modes = append(report.Modes, m)
		}
	}

	return emitReport(path, out, &report, func(out io.Writer) error {
		fmt.Fprintf(out, "live heartbeat benchmark (%d workflows, %d beats/tracker, GOMAXPROCS=%d):\n",
			liveBenchFlows, liveBenchBeats, report.GoMaxProcs)
		for _, m := range report.Modes {
			fmt.Fprintf(out, "  %-9s shards=%-2d trackers=%-3d %10.0f beats/sec  p50 %6dns  p99 %8dns\n",
				m.Name, m.Shards, m.Trackers, m.HeartbeatsPerSec, m.P50Ns, m.P99Ns)
		}
		if report.Note != "" {
			fmt.Fprintf(out, "  note: %s\n", report.Note)
		}
		return nil
	})
}
