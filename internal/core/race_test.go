//go:build race

package core

// raceEnabled reports a -race build, where sync.Pool drops pooled values
// at random and allocation counts stop being deterministic.
const raceEnabled = true
