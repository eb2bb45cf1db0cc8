package woha_test

import (
	"context"
	"testing"
	"time"

	woha "repro"
)

func liveCfg() woha.LiveConfig {
	return woha.LiveConfig{
		Nodes:              4,
		MapSlotsPerNode:    2,
		ReduceSlotsPerNode: 1,
		HeartbeatInterval:  2 * time.Millisecond,
		TimeScale:          0.0002,
	}
}

func TestLiveSessionInProcess(t *testing.T) {
	sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerWOHALPF, false, woha.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses() != 0 {
		t.Errorf("missed %d deadlines", res.DeadlineMisses())
	}
	if res.TasksStarted != 96 {
		t.Errorf("TasksStarted = %d, want 96", res.TasksStarted)
	}
}

func TestLiveSessionTCP(t *testing.T) {
	sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerFIFO, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", 2*time.Hour)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Workflows[0].Finish == 0 {
		t.Error("workflow never finished over TCP")
	}
}

func TestLiveSessionUnknownScheduler(t *testing.T) {
	if _, err := woha.NewLiveSession(liveCfg(), "nope", false); err == nil {
		t.Error("unknown scheduler accepted")
	}
}

// TestLiveSessionHonoursSessionOptions pins the option wiring NewLiveSession
// shares with NewSession: WithAdmission becomes the JobTracker's front door
// (a workflow the 1+1-slot feasibility check refuses never runs), WithPlanner
// serves Submit's plan, and WithObserver is refused rather than dropped.
func TestLiveSessionHonoursSessionOptions(t *testing.T) {
	ctrl, err := woha.NewAdmission(woha.AdmissionConfig{
		Cluster: woha.PlanCaps{Maps: 1, Reduces: 1},
		Mode:    woha.AdmissionModeFeasible,
	})
	if err != nil {
		t.Fatal(err)
	}
	pl := woha.NewPlanner(woha.WithPlanCache(8))
	sess, err := woha.NewLiveSession(liveCfg(), woha.SchedulerWOHALPF, false,
		woha.WithAdmission(ctrl), woha.WithPlanner(pl))
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Submit(etl(t, "w", time.Minute)); err != nil {
		t.Fatal(err)
	}
	if got := pl.CacheLen(); got != 1 {
		t.Errorf("shared planner CacheLen = %d after Submit, want 1", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	res, err := sess.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if wr := res.Workflows[0]; !wr.Rejected || wr.RejectReason != "infeasible" {
		t.Errorf("workflow = %+v, want an infeasible rejection", wr)
	}
	if res.TasksStarted != 0 {
		t.Errorf("TasksStarted = %d, want 0 behind the front door", res.TasksStarted)
	}

	if _, err := woha.NewLiveSession(liveCfg(), woha.SchedulerFIFO, false,
		woha.WithObserver(woha.NewTimeline())); err == nil {
		t.Error("WithObserver accepted by NewLiveSession")
	}
}
