//go:build race

package netsim_test

// raceEnabled reports a -race build, whose sync.Pool drops items at
// random, so pooled-allocation counts are not meaningful there.
const raceEnabled = true
