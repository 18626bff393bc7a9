package kstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"genedit/internal/knowledge"
)

// faultWorkload drives a deterministic commit/compact mix against a store
// opened through fs. Errors are tolerated (they are the point); the
// returned ackedSeq is the highest sequence the store acknowledged as
// durable, and full is the in-memory set that was being committed (a
// superset of everything that could legally be on disk).
func faultWorkload(fs FS, dir string, edits int) (full *knowledge.Set, ackedSeq int, err error) {
	st, err := Open(dir, WithFS(fs), WithCompactEvery(3))
	if err != nil {
		return nil, 0, err
	}
	defer st.Close()
	set := st.Recovered()
	if set == nil {
		return nil, 0, errors.New("no recovered set")
	}
	ackedSeq = set.LastSeq()
	for i := 0; i < edits; i++ {
		if insErr := set.InsertInstruction(&knowledge.Instruction{
			Text: fmt.Sprintf("fault-workload edit %d", i),
		}, "sme", fmt.Sprintf("fb-%03d", i)); insErr != nil {
			return set, ackedSeq, insErr
		}
		var opErr error
		if i%4 == 3 {
			opErr = st.Compact(set)
		} else {
			opErr = st.Commit(set)
		}
		if opErr == nil {
			ackedSeq = set.LastSeq()
		}
		// Keep committing after failures: a failed append must leave the
		// store either cleanly rolled back (later commits append the
		// backlog) or failed-fast — never silently corrupting.
	}
	return set, ackedSeq, nil
}

// assertRecovery reopens dir through a clean filesystem — the disk state a
// reboot sees — and asserts the durability contract: every acknowledged
// event recovered, the recovered history an exact prefix of the writer's
// in-memory history, and the store still able to accept and persist new
// commits.
func assertRecovery(t *testing.T, dir string, full *knowledge.Set, ackedSeq int, context string) {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: recovery open failed: %v", context, err)
	}
	defer st.Close()
	rec := st.Recovered()

	if rec.LastSeq() < ackedSeq {
		t.Fatalf("%s: EVENT LOSS — acknowledged seq %d, recovered only %d", context, ackedSeq, rec.LastSeq())
	}
	if rec.LastSeq() > full.LastSeq() {
		t.Fatalf("%s: recovered seq %d beyond everything written (%d)", context, rec.LastSeq(), full.LastSeq())
	}
	fullHist, recHist := full.History(), rec.History()
	if len(recHist) != rec.LastSeq() {
		t.Fatalf("%s: recovered history has %d events for seq %d", context, len(recHist), rec.LastSeq())
	}
	for i, ev := range recHist {
		got, _ := json.Marshal(ev)
		want, _ := json.Marshal(fullHist[i])
		if string(got) != string(want) {
			t.Fatalf("%s: LINEAGE CORRUPTION at seq %d:\n got %s\nwant %s", context, i+1, got, want)
		}
	}

	// The recovered set must replay to itself: state and log agree.
	replayed := knowledge.NewSet()
	for _, ev := range recHist {
		if err := replayed.ApplyEvent(ev); err != nil {
			t.Fatalf("%s: recovered history does not replay: %v", context, err)
		}
	}
	gotState, _ := json.Marshal(replayed.State())
	wantState, _ := json.Marshal(rec.State())
	if string(gotState) != string(wantState) {
		t.Fatalf("%s: recovered state diverges from its own history replay", context)
	}

	// Convergence: the survivor must accept new work and persist it.
	if err := rec.InsertInstruction(&knowledge.Instruction{Text: "post-recovery edit"}, "sme", "fb-post"); err != nil {
		t.Fatalf("%s: post-recovery mutation: %v", context, err)
	}
	if err := st.Commit(rec); err != nil {
		t.Fatalf("%s: post-recovery commit: %v", context, err)
	}
}

// TestFaultSweepExhaustive measures the filesystem-operation space of a
// fixed commit/compact workload, then re-runs it once per (operation,
// fault-kind) pair with that single fault injected — exhaustively covering
// every fsync failure, short write, torn rename and crash point the
// workload can hit — and asserts full recovery after each.
func TestFaultSweepExhaustive(t *testing.T) {
	// Measure the op space fault-free.
	probeDir := t.TempDir()
	probe := NewFaultFS(OSFS)
	if _, _, err := faultWorkload(probe, probeDir, 10); err != nil {
		t.Fatalf("fault-free probe failed: %v", err)
	}
	ops := probe.Ops()
	if ops < 20 {
		t.Fatalf("workload issued only %d ops; seam is not being exercised", ops)
	}

	for _, kind := range []Fault{FaultErr, FaultPartial, FaultCrash} {
		for op := int64(0); op < ops; op++ {
			dir := t.TempDir()
			ffs := NewFaultFS(OSFS)
			ffs.PlanFault(op, kind)
			full, acked, err := faultWorkload(ffs, dir, 10)
			context := fmt.Sprintf("fault %s at op %d", kind, op)
			if full == nil {
				// The fault fired inside Open before a set existed; the
				// store must still reopen cleanly as empty-or-prior state.
				if err == nil {
					t.Fatalf("%s: Open returned neither set nor error", context)
				}
				full, acked = knowledge.NewSet(), 0
			}
			if ffs.Injected() == 0 {
				t.Fatalf("%s: fault never fired (op space shrank?)", context)
			}
			assertRecovery(t, dir, full, acked, context)
		}
	}
}

// TestCrashFuzz is the randomized counterpart to the exhaustive sweep:
// each iteration evolves a knowledge set through a random mutation mix
// (inserts, updates, deletes, directives, checkpoints) interleaved with
// commits and compactions, with 1–3 random faults — including cascading
// crashes — planted at random operation indices. After every iteration the
// store must recover all acknowledged events with an uncorrupted lineage.
// KSTORE_FUZZ_ITERS overrides the iteration count (CI pins it ≥ 1000).
func TestCrashFuzz(t *testing.T) {
	iters := 1000
	if v := os.Getenv("KSTORE_FUZZ_ITERS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("bad KSTORE_FUZZ_ITERS %q: %v", v, err)
		}
		iters = n
	}
	if testing.Short() {
		iters = 50
	}
	for i := 0; i < iters; i++ {
		crashFuzzIteration(t, int64(i))
	}
}

func crashFuzzIteration(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()

	// Phase 1: an acknowledged durable base through a clean filesystem.
	base, err := Open(dir, WithCompactEvery(3))
	if err != nil {
		t.Fatalf("seed %d: base open: %v", seed, err)
	}
	set := base.Recovered()
	if err := set.InsertExample(&knowledge.Example{
		NL: "compute revenue per view", SQL: "REVENUE / NULLIF(VIEWS, 0)", Clause: "projection",
	}, "preprocessing", ""); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if err := base.Commit(set); err != nil {
		t.Fatalf("seed %d: base commit: %v", seed, err)
	}
	if err := base.Close(); err != nil {
		t.Fatalf("seed %d: base close: %v", seed, err)
	}
	acked := set.LastSeq()

	// Phase 2: reopen through a faulty filesystem and keep mutating.
	ffs := NewFaultFS(OSFS)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ffs.PlanFault(int64(rng.Intn(250)), Fault(rng.Intn(3)))
	}
	if rng.Intn(4) == 0 {
		ffs.PlanDelay(int64(rng.Intn(100)), time.Millisecond) // stalling disk
	}
	st, err := Open(dir, WithFS(ffs), WithCompactEvery(1+rng.Intn(4)))
	if err != nil {
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("seed %d: faulted open: %v", seed, err)
		}
		assertRecovery(t, dir, set, acked, fmt.Sprintf("seed %d (open faulted)", seed))
		return
	}
	if recovered := st.Recovered(); recovered != nil {
		set = recovered
		acked = set.LastSeq()
	}
	steps := 5 + rng.Intn(15)
	for i := 0; i < steps; i++ {
		mutate(t, rng, set, seed, i)
		var opErr error
		if rng.Intn(5) == 0 {
			opErr = st.Compact(set)
		} else {
			opErr = st.Commit(set)
		}
		if opErr == nil {
			acked = set.LastSeq()
		} else if !errors.Is(opErr, ErrInjected) && !isSecondary(opErr) {
			t.Fatalf("seed %d step %d: non-injected failure: %v", seed, i, opErr)
		}
	}
	st.Close()

	assertRecovery(t, dir, set, acked, fmt.Sprintf("seed %d", seed))
}

// isSecondary matches errors caused by an earlier injected fault rather
// than injected directly: a store that failed-fast after a broken rollback
// refuses writes with its own wrapped error.
func isSecondary(err error) bool {
	return err != nil && (errors.Is(err, ErrClosed) ||
		strings.Contains(err.Error(), "store is failed") ||
		strings.Contains(err.Error(), "file already closed"))
}

// mutate applies one random knowledge mutation.
func mutate(t *testing.T, rng *rand.Rand, set *knowledge.Set, seed int64, i int) {
	t.Helper()
	tag := fmt.Sprintf("s%d-i%d", seed, i)
	switch rng.Intn(6) {
	case 0:
		// Explicit ID: the auto-ID counter is count-derived and collides
		// after deletes.
		if err := set.InsertExample(&knowledge.Example{
			ID: "ex-" + tag,
			NL: "question " + tag, SQL: "SELECT " + tag, Clause: "projection",
		}, "sme", tag); err != nil {
			t.Fatalf("insert example: %v", err)
		}
	case 1:
		if err := set.InsertInstruction(&knowledge.Instruction{Text: "rule " + tag}, "sme", tag); err != nil {
			t.Fatalf("insert instruction: %v", err)
		}
	case 2:
		set.AddDirective("directive "+tag, "sme", tag)
	case 3:
		if exs := set.Examples(); len(exs) > 0 {
			// A copy: the set's entities are never written after they
			// are logged, so an update hands it a new one.
			ex := *exs[rng.Intn(len(exs))]
			ex.NL = ex.NL + " (edited " + tag + ")"
			if err := set.UpdateExample(&ex, "sme", tag); err != nil {
				t.Fatalf("update example: %v", err)
			}
		} else {
			set.AddDirective("directive "+tag, "sme", tag)
		}
	case 4:
		if exs := set.Examples(); len(exs) > 1 {
			if err := set.DeleteExample(exs[rng.Intn(len(exs))].ID, "sme", tag); err != nil {
				t.Fatalf("delete example: %v", err)
			}
		} else {
			set.AddDirective("directive "+tag, "sme", tag)
		}
	case 5:
		set.Checkpoint("cp-" + tag)
	}
}
