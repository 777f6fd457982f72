//go:build !race

package spath

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under it (its sync.Pool drops
// pooled items at random).
const raceEnabled = false
