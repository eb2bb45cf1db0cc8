// Package ordered defines the ordered-set contract shared by the Double Skip
// List's backing structures: the skip list (the paper's choice), the balanced
// search tree baseline, and the naive sorted-slice baseline compared in
// Fig 13(a) of the WOHA paper.
package ordered

// Set is a dynamic ordered set of unique keys.
//
// Keys must be unique under the set's comparator: inserting a key equal to an
// existing one (neither less nor greater) is the caller's bug and the
// behaviour is implementation-defined. The WOHA scheduler guarantees
// uniqueness by composing every key with the workflow's submission index.
type Set[K any] interface {
	// Insert adds key to the set.
	Insert(key K)
	// Delete removes key from the set, reporting whether it was present.
	Delete(key K) bool
	// Min returns the smallest key. ok is false when the set is empty.
	Min() (key K, ok bool)
	// DeleteMin removes and returns the smallest key. ok is false when the
	// set is empty. Implementations optimize this head-of-list case; it is
	// the dominant operation in Algorithm 2 of the paper.
	DeleteMin() (key K, ok bool)
	// Move removes old and inserts new as a single operation, reporting
	// whether old was present (new is not inserted when old was absent).
	// Implementations reuse old's storage and, when new sorts after old,
	// resume the position search from old's location instead of the root —
	// the Double Skip List's settle path always moves keys forward in time,
	// so Move turns its delete+reinsert pair into a pointer splice.
	Move(old, new K) bool
	// Len returns the number of keys in the set.
	Len() int
	// Ascend calls fn on every key in ascending order until fn returns
	// false or the keys are exhausted. fn must not mutate the set.
	Ascend(fn func(key K) bool)
}

// Less is a strict weak ordering over K. Less(a, b) && Less(b, a) must never
// both hold, and !Less(a, b) && !Less(b, a) means a and b are equal.
type Less[K any] func(a, b K) bool
