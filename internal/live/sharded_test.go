package live_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// shardedConfig is fastConfig with an explicit shard count, so the tests
// pin the shard count they exercise instead of taking the GOMAXPROCS default.
func shardedConfig(shards int) live.Config {
	cfg := fastConfig()
	cfg.Shards = shards
	return cfg
}

// driveScripted runs a deterministic single-driver heartbeat script against
// a cluster: every round completes the previous round's assignments and
// offers the given slots, until an idle round follows an empty completion
// report. It returns the full assignment stream in arrival order.
func driveScripted(t *testing.T, c *live.Cluster, freeMaps, freeReds int) []live.Assignment {
	t.Helper()
	var stream []live.Assignment
	var held []live.TaskID
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("scripted drive did not converge")
		}
		out := c.DeliverHeartbeat(live.Heartbeat{
			Tracker: 0, FreeMaps: freeMaps, FreeReds: freeReds, Completed: held,
		})
		if len(out) == 0 && len(held) == 0 {
			return stream
		}
		held = held[:0]
		for _, a := range out {
			stream = append(stream, a)
			held = append(held, a.ID)
		}
	}
}

// TestShardedScriptedStreamGolden pins scheduling outcomes in the strongest
// form: under a time-independent policy (FIFO ignores the clock) and a
// serial heartbeat script, every shard count must reproduce the committed
// assignment stream byte for byte.
func TestShardedScriptedStreamGolden(t *testing.T) {
	for _, shards := range goldenShards {
		c, err := live.New(shardedConfig(shards), scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []*workflow.Workflow{
			chainFlow("w1", 0, 2*time.Hour),
			chainFlow("w2", 0, 2*time.Hour),
			chainFlow("w3", 0, 2*time.Hour),
		} {
			if err := c.Submit(w, nil); err != nil {
				t.Fatal(err)
			}
		}
		stream := driveScripted(t, c, 2, 1)
		if len(stream) != 3*14 {
			t.Fatalf("Shards=%d: stream has %d assignments, want 42", shards, len(stream))
		}
		// One assignment per line: workflow, job, slot type, sequence
		// number, wall time (ns).
		var buf bytes.Buffer
		for _, a := range stream {
			fmt.Fprintf(&buf, "%d\t%d\t%d\t%d\t%d\n", a.ID.Workflow, a.ID.Job, a.ID.Type, a.ID.Seq, int64(a.WallTime))
		}
		checkGolden(t, "scripted_fifo.golden", shards, buf.Bytes())
	}
}

// TestShardedEquivalenceAcrossShardCounts runs the same seeded WOHA workload
// to completion under every shard count and checks the per-workflow deadline
// outcomes agree: timing in the live cluster is noisy, but with these
// margins every workflow must meet its deadline identically everywhere.
func TestShardedEquivalenceAcrossShardCounts(t *testing.T) {
	flows := func() []*workflow.Workflow {
		return []*workflow.Workflow{
			chainFlow("w1", 0, 2*time.Hour),
			chainFlow("w2", 10*time.Second, 2*time.Hour),
			chainFlow("w3", 20*time.Second, 2*time.Hour),
		}
	}
	var baseline []bool
	for _, shards := range []int{1, 2, 8} {
		c, err := live.New(shardedConfig(shards), core.NewScheduler(core.Options{Seed: 7}))
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
		if res.TasksStarted != 3*14 {
			t.Errorf("Shards=%d: TasksStarted = %d, want 42", shards, res.TasksStarted)
		}
		met := make([]bool, len(res.Workflows))
		for i, w := range res.Workflows {
			if w.Finish == 0 {
				t.Errorf("Shards=%d: %s never finished", shards, w.Name)
			}
			met[i] = w.Met
		}
		if baseline == nil {
			baseline = met
			continue
		}
		if !reflect.DeepEqual(met, baseline) {
			t.Errorf("Shards=%d deadline outcomes %v differ from Shards=1 %v", shards, met, baseline)
		}
	}
}

// TestShardedConcurrentDirectHeartbeats hammers the sharded tracker with
// concurrent DeliverHeartbeat callers that assign and complete tasks, then
// drains serially and checks nothing was lost. Run under -race this covers
// the shard/pipeline/fast-path synchronization.
func TestShardedConcurrentDirectHeartbeats(t *testing.T) {
	c, err := live.New(shardedConfig(4), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	const flows = 8
	for i := 0; i < flows; i++ {
		w := workflow.NewBuilder("w").
			Job("j", 6, 2, 10*time.Second, 20*time.Second).
			MustBuild(0, simtime.Epoch.Add(time.Hour))
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}

	const workers = 4
	leftovers := make([][]live.TaskID, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(tr int) {
			defer wg.Done()
			var held []live.TaskID
			for i := 0; i < 300; i++ {
				hb := live.Heartbeat{Tracker: tr, Completed: held}
				// Alternate busy reports (fast path) with slot offers.
				if i%2 == 0 {
					hb.FreeMaps, hb.FreeReds = 2, 1
				}
				held = held[:0]
				for _, a := range c.DeliverHeartbeat(hb) {
					held = append(held, a.ID)
				}
			}
			leftovers[tr] = held
		}(g)
	}
	wg.Wait()

	// Complete whatever the workers still held, then drain to completion.
	var held []live.TaskID
	for _, l := range leftovers {
		held = append(held, l...)
	}
	for round := 0; ; round++ {
		if round > 10000 {
			t.Fatal("drain did not converge")
		}
		out := c.DeliverHeartbeat(live.Heartbeat{
			Tracker: 0, FreeMaps: 8, FreeReds: 4, Completed: held,
		})
		if len(out) == 0 && len(held) == 0 {
			break
		}
		held = held[:0]
		for _, a := range out {
			held = append(held, a.ID)
		}
	}

	// Every workflow finished, so Run returns the final snapshot instantly.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksStarted != flows*8 {
		t.Errorf("TasksStarted = %d, want %d", res.TasksStarted, flows*8)
	}
	for _, w := range res.Workflows {
		if w.Finish == 0 {
			t.Errorf("%s never finished", w.Name)
		}
	}
}

// TestShardedRunWithTrackers runs the full TaskTracker goroutine cluster on
// four shards.
func TestShardedRunWithTrackers(t *testing.T) {
	c, err := live.New(shardedConfig(4), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []*workflow.Workflow{
		chainFlow("w1", 0, 2*time.Hour),
		chainFlow("w2", 10*time.Second, 2*time.Hour),
	} {
		if err := c.Submit(w, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.TasksStarted != 2*14 {
		t.Errorf("TasksStarted = %d, want 28", res.TasksStarted)
	}
	for _, w := range res.Workflows {
		if !w.Met {
			t.Errorf("%s missed a two-hour deadline (finish %v)", w.Name, w.Finish)
		}
	}
}

// TestRegisterAfterStartPanics pins the loud failure the tracker promises
// when registration races the running cluster.
func TestRegisterAfterStartPanics(t *testing.T) {
	c, err := live.New(shardedConfig(4), scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	// Freeze registration the way tests and benchmarks do: a direct
	// heartbeat stamps the clock.
	c.DeliverHeartbeat(live.Heartbeat{Tracker: 0})
	defer func() {
		if recover() == nil {
			t.Error("register after start did not panic")
		}
	}()
	_ = c.Submit(chainFlow("late", 0, time.Hour), nil)
}

// TestShardedObsMetrics checks the sharded tracker's dedicated instruments:
// the shard-count gauge, fast-path accounting for busy heartbeats, and the
// policy event batching counters.
func TestShardedObsMetrics(t *testing.T) {
	ins := obs.New(obs.NewRegistry(), nil)
	cfg := shardedConfig(4)
	cfg.Obs = ins
	c, err := live.New(cfg, scheduler.NewFIFO())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Submit(chainFlow("w", 0, time.Hour), nil); err != nil {
		t.Fatal(err)
	}
	if got := ins.Registry().Gauge(obs.MetricLiveShards, "").Value(); got != 4 {
		t.Errorf("%s = %d, want 4", obs.MetricLiveShards, got)
	}

	stream := driveScripted(t, c, 2, 1)
	if len(stream) != 14 {
		t.Fatalf("assignment stream has %d entries, want 14", len(stream))
	}
	// Busy heartbeats with nothing to report ride the lock-free fast path.
	for i := 0; i < 5; i++ {
		c.DeliverHeartbeat(live.Heartbeat{Tracker: 1})
	}
	if got := ins.Registry().Counter(obs.MetricLiveFastPathBeats, "").Value(); got < 5 {
		t.Errorf("%s = %d, want >= 5", obs.MetricLiveFastPathBeats, got)
	}
	batches := ins.Registry().Counter(obs.MetricLivePolicyBatches, "").Value()
	events := ins.Registry().Counter(obs.MetricLivePolicyEvents, "").Value()
	if batches == 0 || events == 0 {
		t.Errorf("policy batching not recorded: batches=%d events=%d", batches, events)
	}
	// Lifecycle: released (root activation rides inside it) + reduces-ready
	// for a + activated b + reduces-ready for b + completed = 5.
	if events != 5 {
		t.Errorf("%s = %d, want 5", obs.MetricLivePolicyEvents, events)
	}
}
