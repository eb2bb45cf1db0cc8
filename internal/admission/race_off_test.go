//go:build !race

package admission

// RaceEnabled is false in regular builds; see race_on_test.go.
const RaceEnabled = false
