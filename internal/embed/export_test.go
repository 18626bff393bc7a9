package embed

// ResetMemo replaces the process-wide memo with an empty one of the given
// capacity (0: the production capacity) and returns a function that
// restores the production-sized memo, also empty. Tests that need the memo
// cold, or small enough to evict, use it; they must not run in parallel.
func ResetMemo(capacity int) (restore func()) {
	if capacity <= 0 {
		capacity = memoCap
	}
	shared = newMemo(capacity)
	return func() { shared = newMemo(memoCap) }
}

// size is the number of entries held (both generations).
func (m *memo) size() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.cur) + len(m.prev)
}

// MemoSize is the number of entries the process-wide memo holds.
func MemoSize() int { return shared.size() }
