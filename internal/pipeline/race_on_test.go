//go:build race

package pipeline

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts that depend on pooled scratch are not meaningful.
const raceEnabled = true
