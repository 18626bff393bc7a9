//go:build race

package sqlexec

// raceEnabled: under the race detector sync.Pool drops items at random, so
// allocation counts that depend on the pooled query scratch are not
// meaningful.
const raceEnabled = true
