package live_test

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/live"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/priority"
	"repro/internal/scheduler"
	"repro/internal/simtime"
)

// TestHealthCrossLayoutSnapshots drives concurrent heartbeats through the
// health tracker at every shard count and demands the committed slack
// snapshot at every quiescent point. The script alternates two barriered
// phases per round — all trackers report completions, then all trackers
// request work — so the aggregate scheduled/completed counts at each barrier
// are shard- and interleaving-independent even though the heartbeats inside
// a phase race.
func TestHealthCrossLayoutSnapshots(t *testing.T) {
	const (
		trackers = 4
		deadline = 100 * time.Hour // far out: wall-clock jitter must not leak into tardiness
	)
	// Snapshot instants approach the deadline so plan requirements engage:
	// round r reads ttd = 600s - r*50s.
	snapAt := func(round int) simtime.Time {
		return simtime.Epoch.Add(deadline - 600*time.Second + time.Duration(round)*50*time.Second)
	}

	run := func(shards int) []*obs.HealthSnapshot {
		o := obs.New(obs.NewRegistry(), nil)
		// Interval effectively infinite: only the explicit SnapshotAt calls
		// below publish, keeping the comparison deterministic.
		h := o.EnableHealth(obs.HealthConfig{Interval: 1000 * time.Hour})
		cfg := shardedConfig(shards)
		cfg.Obs = o
		c, err := live.New(cfg, scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"w0", "w1", "w2", "w3"} {
			w := chainFlow(name, 0, deadline)
			p, err := plan.GenerateCapped(w, 12, priority.LPF{})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Submit(w, p); err != nil {
				t.Fatal(err)
			}
		}

		held := make([][]live.TaskID, trackers)
		var snaps []*obs.HealthSnapshot
		for round := 1; ; round++ {
			if round > 1000 {
				t.Fatalf("shards=%d: scripted drive did not converge", shards)
			}
			// Phase A: every tracker reports its completions, concurrently.
			outstanding := 0
			var wg sync.WaitGroup
			for tr := 0; tr < trackers; tr++ {
				outstanding += len(held[tr])
				wg.Add(1)
				go func(tr int) {
					defer wg.Done()
					c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, Completed: held[tr]})
				}(tr)
			}
			wg.Wait()
			// Phase B: every tracker requests work, concurrently. The pending
			// set is frozen (completions all landed in phase A), so the
			// multiset of tasks handed out is deterministic.
			outs := make([][]live.Assignment, trackers)
			for tr := 0; tr < trackers; tr++ {
				wg.Add(1)
				go func(tr int) {
					defer wg.Done()
					outs[tr] = c.DeliverHeartbeat(live.Heartbeat{Tracker: tr, FreeMaps: 2, FreeReds: 1})
				}(tr)
			}
			wg.Wait()
			assigned := 0
			for tr := range outs {
				held[tr] = held[tr][:0]
				for _, a := range outs[tr] {
					held[tr] = append(held[tr], a.ID)
				}
				assigned += len(outs[tr])
			}
			snaps = append(snaps, h.SnapshotAt(snapAt(round)))
			if assigned == 0 && outstanding == 0 {
				return snaps
			}
		}
	}

	for _, shards := range goldenShards {
		snaps := run(shards)
		// The drive must have produced non-trivial health data, not
		// vacuously equal empty snapshots.
		final := snaps[len(snaps)-1]
		if len(final.Workflows) != 4 {
			t.Fatalf("Shards=%d: final snapshot has %d workflows, want 4", shards, len(final.Workflows))
		}
		for _, row := range final.Workflows {
			if !row.Done || row.Completed != row.Total || !row.HasPlan {
				t.Errorf("Shards=%d: final row = %+v, want done with all tasks completed and a plan", shards, row)
			}
		}
		// One JSON snapshot per round.
		var buf bytes.Buffer
		for _, s := range snaps {
			line, err := json.Marshal(s)
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
		checkGolden(t, "health_snapshots.golden", shards, buf.Bytes())
	}
}

// TestHealthReportsSlotCapacity checks that both cluster constructors hand
// the health tracker the cluster's slot capacity, which /statusz reports as
// map_slots and reduce_slots.
func TestHealthReportsSlotCapacity(t *testing.T) {
	for name, ctor := range map[string]func(live.Config, cluster.Policy) (*live.Cluster, error){
		"New":    live.New,
		"NewTCP": live.NewTCP,
	} {
		o := obs.New(obs.NewRegistry(), nil)
		h := o.EnableHealth(obs.HealthConfig{Interval: time.Hour})
		cfg := fastConfig()
		cfg.Obs = o
		c, err := ctor(cfg, scheduler.NewFIFO())
		if err != nil {
			t.Fatal(err)
		}
		if err := c.CloseTransport(); err != nil {
			t.Errorf("%s: CloseTransport: %v", name, err)
		}
		snap := h.SnapshotAt(simtime.Epoch)
		if want := cfg.Nodes * cfg.MapSlotsPerNode; snap.MapSlots != want {
			t.Errorf("%s: map_slots = %d, want %d", name, snap.MapSlots, want)
		}
		if want := cfg.Nodes * cfg.ReduceSlotsPerNode; snap.ReduceSlots != want {
			t.Errorf("%s: reduce_slots = %d, want %d", name, snap.ReduceSlots, want)
		}
	}
}
