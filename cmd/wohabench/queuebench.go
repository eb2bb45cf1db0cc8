package main

// The -queue-bench-out mode microbenchmarks the four inter-workflow queue
// backends (DSL, BST, Det, Naive) in isolation: on a warm queue of 1k/10k/
// 100k synthetic workflows it measures one steady-state AssignTask
// round-trip — Best, Scheduled on the head, Unscheduled to restore — and
// reports ops/sec and heap allocations per op. The Scheduled/Unscheduled
// pairing keeps every entry's true progress stationary, so the measurement
// never drifts out of the populated priority range no matter how long the
// timing loop runs.

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/dsl"
	"repro/internal/plan"
	"repro/internal/simtime"
)

// queueBenchSizes are the queued-workflow populations measured per backend.
var queueBenchSizes = []int{1_000, 10_000, 100_000}

// queueBenchReport is the JSON document -queue-bench-out writes.
type queueBenchReport struct {
	GoMaxProcs int    `json:"go_max_procs"`
	GoVersion  string `json:"go_version"`
	// Op documents the measured unit.
	Op     string            `json:"op"`
	Points []queueBenchPoint `json:"points"`
}

type queueBenchPoint struct {
	Backend     string  `json:"backend"`
	Queued      int     `json:"queued_workflows"`
	NsPerOp     int64   `json:"ns_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// queueBenchReqs mirrors the Fig 13(a) synthetic plan shape: a handful of
// progress waves tens of seconds apart.
func queueBenchReqs(rng *rand.Rand) []plan.Req {
	n := 2 + rng.Intn(8)
	reqs := make([]plan.Req, 0, n)
	ttd := time.Duration(200+rng.Intn(2000)) * time.Second
	cum := 0
	for i := 0; i < n; i++ {
		cum += 1 + rng.Intn(40)
		reqs = append(reqs, plan.Req{TTD: ttd, Cum: cum})
		ttd -= time.Duration(10+rng.Intn(120)) * time.Second
	}
	return reqs
}

// measureQueueOps fills a fresh queue with n entries and times the
// steady-state decision round-trip at a fixed instant (the first Best
// settles everything due, so the loop isolates the decision path).
func measureQueueOps(mk func() dsl.Queue, n int) queueBenchPoint {
	rng := rand.New(rand.NewSource(1))
	q := mk()
	for i := 0; i < n; i++ {
		q.Add(dsl.NewEntry(i, simtime.FromSeconds(600+rng.Float64()*100000), queueBenchReqs(rng)), 0)
	}
	now := simtime.FromSeconds(300)
	op := func() {
		e, ok := q.Best(now)
		if !ok {
			panic("queue bench: Best found nothing on a populated queue")
		}
		q.Scheduled(e.ID, now)
		q.Unscheduled(e.ID, now)
	}
	op()
	op()
	allocs := testing.AllocsPerRun(10, op)
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op()
		}
	})
	ns := r.NsPerOp()
	return queueBenchPoint{
		Queued:      n,
		NsPerOp:     ns,
		OpsPerSec:   1e9 / float64(ns),
		AllocsPerOp: allocs,
	}
}

// runQueueBench measures every backend at every population and writes the
// JSON report to path ("-" for stdout),
// echoing a summary table through emitReport.
func runQueueBench(path string, out io.Writer) error {
	backends := []struct {
		name string
		mk   func() dsl.Queue
	}{
		{"DSL", func() dsl.Queue { return dsl.New(1) }},
		{"BST", func() dsl.Queue { return dsl.NewBST() }},
		{"Det", func() dsl.Queue { return dsl.NewDeterministic() }},
		{"Naive", func() dsl.Queue { return dsl.NewNaive() }},
	}
	report := queueBenchReport{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Op:         "Best + Scheduled + Unscheduled round-trip on a warm queue",
	}
	for _, b := range backends {
		for _, n := range queueBenchSizes {
			p := measureQueueOps(b.mk, n)
			p.Backend = b.name
			report.Points = append(report.Points, p)
		}
	}

	return emitReport(path, out, &report, func(out io.Writer) error {
		fmt.Fprintf(out, "queue benchmark (%s, GOMAXPROCS=%d):\n", report.Op, report.GoMaxProcs)
		fmt.Fprintf(out, "  %-6s %10s %14s %12s %10s\n", "queue", "queued", "ops/sec", "ns/op", "allocs/op")
		for _, p := range report.Points {
			fmt.Fprintf(out, "  %-6s %10d %14.0f %12d %10.1f\n",
				p.Backend, p.Queued, p.OpsPerSec, p.NsPerOp, p.AllocsPerOp)
		}
		return nil
	})
}
