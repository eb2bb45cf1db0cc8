//go:build race

package admission

// RaceEnabled reports that this binary was built with -race. Allocation
// pins skip under race: the race runtime's bookkeeping inflates counts. It
// is exported so the package's external tests see it too.
const RaceEnabled = true
