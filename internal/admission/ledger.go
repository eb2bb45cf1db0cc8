package admission

import (
	"fmt"
	"slices"

	"repro/internal/plan"
	"repro/internal/simtime"
)

// Commitment reserves typed slot capacity over a virtual-time window
// [Start, End): the slice of the cluster an admitted workflow's plan is
// entitled to until it completes or the window lapses.
type Commitment struct {
	// Workflow keys the commitment for release on completion.
	Workflow string
	// Tenant attributes the reservation for quota accounting.
	Tenant string
	// Start and End bound the reserved window; End is the admission-time
	// makespan estimate, not a hard kill time.
	Start, End simtime.Time
	// Maps and Reduces are the reserved slot counts per pool.
	Maps, Reduces int
}

// caps returns the commitment's reservation as typed caps.
func (c Commitment) caps() plan.Caps { return plan.Caps{Maps: c.Maps, Reduces: c.Reduces} }

// covers reports whether the commitment reserves capacity at instant t.
func (c Commitment) covers(t simtime.Time) bool { return c.Start <= t && t < c.End }

// Ledger tracks the map/reduce slot-time committed to admitted workflows
// against a fixed cluster capacity. Commit enforces the ledger invariant —
// at every instant, the sum of live reservations stays within the cluster in
// both pools — so an over-commit is impossible by construction, not merely
// detected after the fact (pinned by TestLedgerNeverOverCommits).
//
// The ledger is not internally locked: the admission pipeline serializes all
// access under its own mutex.
type Ledger struct {
	cluster plan.Caps
	commits []Commitment
	ends    []simtime.Time // EndsWithin's reused result buffer
}

// NewLedger returns an empty ledger over the given cluster capacity.
func NewLedger(cluster plan.Caps) *Ledger { return &Ledger{cluster: cluster} }

// Cluster returns the capacity the ledger accounts against.
func (l *Ledger) Cluster() plan.Caps { return l.cluster }

// Committed returns a snapshot of the live commitments, in admission order.
func (l *Ledger) Committed() []Commitment { return append([]Commitment(nil), l.commits...) }

// Commit adds c after proving it fits: usage is piecewise constant and only
// changes at commitment boundaries, so checking c.Start plus every existing
// start inside the window covers all candidate peaks. Violations leave the
// ledger untouched and return an error naming the crowded instant.
func (l *Ledger) Commit(c Commitment) error {
	if c.Maps < 0 || c.Reduces < 0 || c.End <= c.Start {
		return fmt.Errorf("admission: malformed commitment %+v", c)
	}
	if err := l.fits(c, c.Start); err != nil {
		return err
	}
	for _, e := range l.commits {
		if e.Start > c.Start && e.Start < c.End {
			if err := l.fits(c, e.Start); err != nil {
				return err
			}
		}
	}
	l.commits = append(l.commits, c)
	return nil
}

// fits checks that adding c keeps both pools within the cluster at instant t.
func (l *Ledger) fits(c Commitment, t simtime.Time) error {
	u := l.usageAt(t)
	if u.Maps+c.Maps > l.cluster.Maps || u.Reduces+c.Reduces > l.cluster.Reduces {
		return fmt.Errorf("admission: commitment %q would exceed cluster %+v at %s (in use %+v, requested %+v)",
			c.Workflow, l.cluster, t, u, c.caps())
	}
	return nil
}

// usageAt sums the live reservations covering instant t.
func (l *Ledger) usageAt(t simtime.Time) plan.Caps {
	var u plan.Caps
	for _, c := range l.commits {
		if c.covers(t) {
			u.Maps += c.Maps
			u.Reduces += c.Reduces
		}
	}
	return u
}

// Release drops the commitment keyed by (tenant, workflow name), reporting
// whether one existed. A workflow finishing ahead of its estimated window
// frees its reservation for later admissions. Tenant is part of the key for
// the same reason the pipeline's defer anchors carry it: workflow names are
// only unique per tenant, and matching on name alone would let one tenant's
// completion release another's reservation.
func (l *Ledger) Release(tenant, wf string) bool {
	for i, c := range l.commits {
		if c.Workflow == wf && c.Tenant == tenant {
			l.commits = append(l.commits[:i], l.commits[i+1:]...)
			return true
		}
	}
	return false
}

// Expire drops commitments whose window ended at or before now: a workflow
// running past its estimate keeps its slots in the scheduler, but no longer
// holds an admission reservation against future arrivals.
func (l *Ledger) Expire(now simtime.Time) {
	kept := l.commits[:0]
	for _, c := range l.commits {
		if c.End > now {
			kept = append(kept, c)
		}
	}
	l.commits = kept
}

// PeakOver returns the per-pool maximum committed usage over [t0, t1).
// Usage only steps at commitment starts, so evaluating t0 and each start in
// the window is exact.
func (l *Ledger) PeakOver(t0, t1 simtime.Time) plan.Caps {
	peak := l.usageAt(t0)
	for _, c := range l.commits {
		if c.Start > t0 && c.Start < t1 {
			u := l.usageAt(c.Start)
			if u.Maps > peak.Maps {
				peak.Maps = u.Maps
			}
			if u.Reduces > peak.Reduces {
				peak.Reduces = u.Reduces
			}
		}
	}
	return peak
}

// FreeOver returns the capacity of eff guaranteed uncommitted across the
// whole window [t0, t1), clamped at zero. eff may be smaller than the
// ledger's cluster (priority tiers shrink it); commitments still count in
// full against it.
func (l *Ledger) FreeOver(t0, t1 simtime.Time, eff plan.Caps) plan.Caps {
	peak := l.PeakOver(t0, t1)
	free := plan.Caps{Maps: eff.Maps - peak.Maps, Reduces: eff.Reduces - peak.Reduces}
	if free.Maps < 0 {
		free.Maps = 0
	}
	if free.Reduces < 0 {
		free.Reduces = 0
	}
	return free
}

// TenantPeakOver returns the per-pool maximum usage committed to one tenant
// over [t0, t1).
func (l *Ledger) TenantPeakOver(tenant string, t0, t1 simtime.Time) plan.Caps {
	peak := l.tenantUsageAt(tenant, t0)
	for _, c := range l.commits {
		if c.Tenant == tenant && c.Start > t0 && c.Start < t1 {
			u := l.tenantUsageAt(tenant, c.Start)
			if u.Maps > peak.Maps {
				peak.Maps = u.Maps
			}
			if u.Reduces > peak.Reduces {
				peak.Reduces = u.Reduces
			}
		}
	}
	return peak
}

// tenantUsageAt sums one tenant's live reservations covering instant t.
func (l *Ledger) tenantUsageAt(tenant string, t simtime.Time) plan.Caps {
	var u plan.Caps
	for _, c := range l.commits {
		if c.Tenant == tenant && c.covers(t) {
			u.Maps += c.Maps
			u.Reduces += c.Reduces
		}
	}
	return u
}

// NextTenantEnd returns the earliest end, strictly after `after`, of one of
// the tenant's commitments — the soonest instant its quota usage shrinks.
func (l *Ledger) NextTenantEnd(tenant string, after simtime.Time) (simtime.Time, bool) {
	best, ok := simtime.MaxTime, false
	for _, c := range l.commits {
		if c.Tenant == tenant && c.End > after && c.End < best {
			best, ok = c.End, true
		}
	}
	return best, ok
}

// EndsWithin returns the distinct commitment ends in (t0, t1), ascending —
// the candidate retry instants at which capacity frees up. The result
// aliases a buffer the ledger reuses, so each call is allocation-free once
// warm: it stays valid until the next EndsWithin call, and callers must not
// retain it past that or mutate it.
func (l *Ledger) EndsWithin(t0, t1 simtime.Time) []simtime.Time {
	ends := l.ends[:0]
	for _, c := range l.commits {
		if c.End > t0 && c.End < t1 {
			ends = append(ends, c.End)
		}
	}
	slices.Sort(ends)
	l.ends = ends
	return slices.Compact(ends)
}
