package dsl

import (
	"sort"

	"repro/internal/obs"
	"repro/internal/simtime"
)

// Naive is the strawman queue from Section IV-B: on every scheduling call it
// recomputes the progress lag of every queued workflow and rescans for the
// maximum, costing O(n_w) (or O(n_w log n_w) to produce a full ordering) per
// slot free-up. Fig 13(a) shows it collapsing beyond ~10k queued workflows.
type Naive struct {
	// entries maps workflow ID (dense submission index) to its entry; nil
	// slots are absent workflows.
	entries []*Entry
	count   int
	stats   *obs.QueueStats
	// scratch is reused by Ascend's sort.
	scratch []*Entry
}

var _ Queue = (*Naive)(nil)

// NewNaive returns an empty naive queue.
func NewNaive() *Naive {
	return &Naive{}
}

// Len implements Queue.
func (n *Naive) Len() int { return n.count }

// Instrument implements Queue.
func (n *Naive) Instrument(stats *obs.QueueStats) { n.stats = stats }

// Add implements Queue.
func (n *Naive) Add(e *Entry, now simtime.Time) {
	n.stats.OnInsert(now, e.ID)
	e.refresh(now)
	for e.ID >= len(n.entries) {
		n.entries = append(n.entries, nil)
	}
	n.entries[e.ID] = e
	n.count++
}

// Remove implements Queue.
func (n *Naive) Remove(id int, now simtime.Time) bool {
	if id < 0 || id >= len(n.entries) || n.entries[id] == nil {
		return false
	}
	n.entries[id] = nil
	n.count--
	n.stats.OnDelete(now, id)
	return true
}

// Best implements Queue. It recomputes every entry's priority — the O(n_w)
// rescan the DSL exists to avoid; no head hits are ever recorded here.
func (n *Naive) Best(now simtime.Time) (*Entry, bool) {
	var best *Entry
	for _, e := range n.entries {
		if e == nil {
			continue
		}
		e.refresh(now)
		if best == nil || e.prio > best.prio || (e.prio == best.prio && e.ID < best.ID) {
			best = e
		}
	}
	n.stats.OnLagRecomputes(n.count)
	return best, best != nil
}

// Scheduled implements Queue.
func (n *Naive) Scheduled(id int, now simtime.Time) {
	if id >= 0 && id < len(n.entries) && n.entries[id] != nil {
		e := n.entries[id]
		e.rho++
		e.computePrio()
	}
}

// Unscheduled implements Queue.
func (n *Naive) Unscheduled(id int, now simtime.Time) {
	if id >= 0 && id < len(n.entries) && n.entries[id] != nil {
		e := n.entries[id]
		e.rho--
		e.computePrio()
	}
}

// Ascend implements Queue. It recomputes and fully sorts the queue.
func (n *Naive) Ascend(now simtime.Time, fn func(e *Entry) bool) {
	all := n.scratch[:0]
	for _, e := range n.entries {
		if e == nil {
			continue
		}
		e.refresh(now)
		all = append(all, e)
	}
	n.scratch = all
	n.stats.OnLagRecomputes(len(all))
	sort.Slice(all, func(i, j int) bool {
		if all[i].prio != all[j].prio {
			return all[i].prio > all[j].prio
		}
		return all[i].ID < all[j].ID
	})
	for _, e := range all {
		if !fn(e) {
			return
		}
	}
}
