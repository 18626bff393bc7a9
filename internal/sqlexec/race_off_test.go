//go:build !race

package sqlexec

const raceEnabled = false
