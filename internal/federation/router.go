// Package federation runs N cluster simulators behind one shared virtual
// clock with a workflow-to-cluster routing layer on top — the control plane
// the ROADMAP names as its first open item. The federation loop always
// advances the globally-earliest member (cluster.Peek/StepTo), injects
// routed workflows mid-run (cluster.SubmitLive), and hands routing policies
// per-cluster load snapshots refreshed at a configurable staleness interval,
// so experiments can measure how stale observability degrades deadline-miss
// rates — a production failure mode the paper never touches.
//
// Everything is deterministic: same members, same submissions, same router,
// and same staleness interval reproduce byte-identical routing decisions and
// per-workflow outcomes (pinned by TestFederationDeterminism). A
// single-member federation at staleness 0 is byte-identical to a plain
// cluster.Sim run of the same workload submitted in release order
// (TestSingleClusterEquivalence). The precondition matters: the federation
// indexes workflows in release order, a plain run in submission order, and
// EDF, Fair and FIFO break ties by that index. On the Yahoo workload (not
// release-sorted) under EDF on 32 nodes, a plain run in input order misses
// 37 of 46 deadlines and a one-member federation 30.
package federation

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/plan"
	"repro/internal/simtime"
	"repro/internal/workflow"
)

// Snapshot is one member cluster's load view as the routers last saw it.
// TakenAt is the federation-clock instant the view was refreshed; the view
// itself may describe an earlier local instant (Load.At) when the member had
// no events to process since.
type Snapshot struct {
	Load    cluster.Load
	TakenAt simtime.Time
}

// Age returns how stale the snapshot is at federation instant now.
func (s Snapshot) Age(now simtime.Time) time.Duration {
	return now.Sub(s.TakenAt)
}

// Router decides which member cluster a workflow runs on. Route receives the
// workflow, its WOHA plan (nil for plan-less schedulers), and every member's
// last load snapshot, indexed by cluster; it returns the chosen cluster
// index. Implementations must be deterministic — no map iteration, no
// randomness — so federation runs replay exactly.
type Router interface {
	Name() string
	Route(w *workflow.Workflow, p *plan.Plan, snaps []Snapshot) int
}

// The built-in routing policy names.
const (
	RouterRoundRobin  = "round-robin"
	RouterLeastLoaded = "least-loaded"
	RouterSlack       = "slack"
)

// RouterNames lists the built-in routing policies accepted by NewRouter, in
// presentation order.
func RouterNames() []string {
	return []string{RouterRoundRobin, RouterLeastLoaded, RouterSlack}
}

// NewRouter builds a built-in router by name.
func NewRouter(name string) (Router, error) {
	switch name {
	case RouterRoundRobin:
		return &RoundRobin{}, nil
	case RouterLeastLoaded:
		return LeastLoaded{}, nil
	case RouterSlack:
		return SlackAware{}, nil
	default:
		return nil, fmt.Errorf("federation: unknown router %q (have %v)", name, RouterNames())
	}
}

// RoundRobin routes workflows to clusters in rotation, ignoring load
// entirely — the baseline the load-aware policies are judged against.
type RoundRobin struct {
	next int
}

func (r *RoundRobin) Name() string { return "round-robin" }

func (r *RoundRobin) Route(_ *workflow.Workflow, _ *plan.Plan, snaps []Snapshot) int {
	id := r.next % len(snaps)
	r.next = (r.next + 1) % len(snaps)
	return id
}

// backlogPerSlot is the snapshot's owed slot-time normalized by capacity:
// the estimated wait a new arrival sees before the cluster can start it.
func backlogPerSlot(s Snapshot) time.Duration {
	slots := s.Load.MapSlots + s.Load.ReduceSlots
	if slots <= 0 {
		return s.Load.Backlog
	}
	return s.Load.Backlog / time.Duration(slots)
}

// LeastLoaded routes each workflow to the cluster with the smallest backlog
// per slot (ties break to the lowest index), balancing queued work across
// heterogeneous capacities.
type LeastLoaded struct{}

func (LeastLoaded) Name() string { return "least-loaded" }

func (LeastLoaded) Route(_ *workflow.Workflow, _ *plan.Plan, snaps []Snapshot) int {
	best := 0
	bestWait := backlogPerSlot(snaps[0])
	for i := 1; i < len(snaps); i++ {
		if w := backlogPerSlot(snaps[i]); w < bestWait {
			best, bestWait = i, w
		}
	}
	return best
}

// SlackAware routes each workflow to the cluster that leaves it the most
// deadline slack: the relative deadline minus the cluster's estimated
// backlog wait minus the workflow's own estimated run time there. The run
// estimate is the plan's standalone makespan when a plan exists (Algorithm 1
// already simulated the workflow under its cap), else the workflow's serial
// work spread over the cluster's slots. Ties break to the lowest index, so
// equally-idle clusters absorb arrivals in index order.
type SlackAware struct{}

func (SlackAware) Name() string { return "slack" }

func (SlackAware) Route(w *workflow.Workflow, p *plan.Plan, snaps []Snapshot) int {
	rel := w.RelativeDeadline()
	best := 0
	bestSlack := time.Duration(0)
	for i := range snaps {
		run := time.Duration(0)
		if p != nil && p.Makespan > 0 {
			run = p.Makespan
		} else {
			slots := snaps[i].Load.MapSlots + snaps[i].Load.ReduceSlots
			if slots > 0 {
				run = w.SerialWork() / time.Duration(slots)
			} else {
				run = w.SerialWork()
			}
		}
		slack := rel - backlogPerSlot(snaps[i]) - run
		if i == 0 || slack > bestSlack {
			best, bestSlack = i, slack
		}
	}
	return best
}
