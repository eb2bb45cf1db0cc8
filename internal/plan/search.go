package plan

import "time"

// Probe runs one Algorithm 1 simulation at a candidate resource cap and
// returns the resulting plan. Probes are pure: the same cap always yields the
// same plan, and concurrent invocations are safe.
type Probe func(cap int) (*Plan, error)

// CapSearcher executes the resource-cap bisection of Section IV-A over the
// interval [lo, hi]: find the plan the sequential binary search settles on,
// probing caps as needed, and report how many probes actually ran.
//
// The contract is exact equivalence with SequentialSearch: an implementation
// may evaluate extra caps speculatively or concurrently, but the (lo, hi)
// narrowing decisions must follow the sequential bisection on the same probe
// results, so the returned plan — and therefore its encoded bytes — is
// identical however the search is executed. best is nil when no probed cap
// met the target (the caller falls back to its full-cluster plan); probes
// counts every simulation actually executed, keeping the paper's Fig 2
// plan-cost accounting honest even for speculative searches.
//
// Probe errors encountered on the bisection path abort the search. Errors on
// speculative caps the sequential search would never visit must not.
type CapSearcher func(lo, hi int, target time.Duration, probe Probe) (best *Plan, probes int, err error)

// Bisect is the resource-cap binary search of Section IV-A over [lo, hi],
// one probe at a time. probe reports only the simulated makespan at a cap,
// so callers that never need the plan itself build none. A cap whose
// makespan meets target narrows hi to it, any other narrows lo past it.
// Bisect returns the last cap that met the target and its makespan (best is
// 0 when none did; caps are positive), plus the number of probes that ran.
// A probe error aborts the search.
func Bisect(lo, hi int, target time.Duration, probe func(cap int) (time.Duration, error)) (best int, makespan time.Duration, probes int, err error) {
	for lo < hi {
		mid := lo + (hi-lo)/2
		m, err := probe(mid)
		if err != nil {
			return 0, 0, probes, err
		}
		probes++
		if m <= target {
			best, makespan, hi = mid, m, mid
		} else {
			lo = mid + 1
		}
	}
	return best, makespan, probes, nil
}

// SequentialSearch is the seed implementation of CapSearcher: Bisect over
// full plans, keeping the plan of the cap the bisection settles on.
func SequentialSearch(lo, hi int, target time.Duration, probe Probe) (*Plan, int, error) {
	var best *Plan
	_, _, probes, err := Bisect(lo, hi, target, func(cap int) (time.Duration, error) {
		p, err := probe(cap)
		if err != nil {
			return 0, err
		}
		if p.Makespan <= target {
			best = p
		}
		return p.Makespan, nil
	})
	if err != nil {
		return nil, probes, err
	}
	return best, probes, nil
}
