package genedit_test

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"genedit"
	"genedit/internal/knowledge"
	"genedit/internal/kstore"
)

// TestFeedbackIDsSurviveRestart: a durable service approves one change,
// closes, and a new service over the same directory approves another. The
// recovered owner resumes numbering after the merged feedback IDs, so the
// two merges carry distinct IDs and checkpoint under distinct names.
func TestFeedbackIDsSurviveRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	suite := genedit.NewBenchmark(1)
	c := suite.Golden(storeDB, 1)[0]
	var ids []string
	var kset *knowledge.Set
	for k := range 2 {
		svc := genedit.NewService(suite, genedit.WithModelSeed(42), genedit.WithStorePath(dir))
		solver, err := svc.Solver(ctx, storeDB, goldenOf(suite))
		if err != nil {
			t.Fatal(err)
		}
		sess, err := solver.OpenContext(ctx, c.Question, c.Evidence)
		if err != nil {
			t.Fatal(err)
		}
		sess.Stage(knowledge.Edit{Op: knowledge.EditInsert, Kind: knowledge.InstructionEntity,
			Instruction: &knowledge.Instruction{ID: writerInstruction(k), Text: fmt.Sprintf("Writer %d audit note: keep column aliases short.", k)}})
		res, err := sess.SubmitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Passed {
			t.Fatalf("gate rejected a harmless instruction: %s", res.Detail)
		}
		if err := solver.Approve(res.Pending, "reviewer"); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.FeedbackID)
		kset = solver.Engine().KnowledgeSet()
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if ids[0] == ids[1] {
		t.Fatalf("the merges before and after the restart share feedback ID %s", ids[0])
	}
	names := map[string]int{}
	for _, ev := range kset.History() {
		if ev.Op == knowledge.OpCheckpoint {
			names[ev.CheckpointName]++
		}
	}
	for _, id := range ids {
		if names["before-"+id] != 1 {
			t.Errorf("checkpoint before-%s logged %d times, want once: %v", id, names["before-"+id], names)
		}
	}
}

// TestFailedDurableBuildRetriesFromDisk plans one store fault — a clean
// error or a torn write — at each of the first 40 filesystem operations of
// a durable service's first Engine call, then calls Engine again on the
// same service. The failed attempt leaves no store open behind it, so the
// retry reopens the directory and recovers whatever the attempt wrote. The
// retry must serve the seed knowledge version, and a fresh service over the
// same directory must recover that version and history length.
func TestFailedDurableBuildRetriesFromDisk(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	seed, err := genedit.NewService(suite).Knowledge(ctx, storeDB, 0)
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, kind := range []kstore.Fault{kstore.FaultErr, kstore.FaultPartial} {
		for op := range int64(40) {
			dir := t.TempDir()
			ffs := kstore.NewFaultFS(kstore.OSFS)
			ffs.PlanFault(op, kind)
			svc := genedit.NewService(suite, genedit.WithStorePath(dir), genedit.WithStoreFS(ffs))
			if _, err := svc.Engine(ctx, storeDB); err != nil {
				failed++
			}
			got, err := svc.Knowledge(ctx, storeDB, 0)
			if err != nil {
				t.Fatalf("%s at op %d: retry: %v", kind, op, err)
			}
			if got.Version != seed.Version || got.HistoryLen != seed.HistoryLen {
				t.Errorf("%s at op %d: retry serves version %d (history %d), want the seed's %d (%d)",
					kind, op, got.Version, got.HistoryLen, seed.Version, seed.HistoryLen)
			}
			svc.Close()

			fresh := genedit.NewService(suite, genedit.WithStorePath(dir))
			rec, err := fresh.Knowledge(ctx, storeDB, 0)
			fresh.Close()
			if err != nil {
				t.Fatalf("%s at op %d: reopen: %v", kind, op, err)
			}
			if rec.Version != got.Version || rec.HistoryLen != got.HistoryLen || rec.PersistedSeq != got.PersistedSeq {
				t.Errorf("%s at op %d: reopened version %d, history %d, seq %d; the retry served %d, %d, %d",
					kind, op, rec.Version, rec.HistoryLen, rec.PersistedSeq, got.Version, got.HistoryLen, got.PersistedSeq)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no planned fault failed a first build: the retry path was never exercised")
	}
}

// TestCloseRacingFirstBuildLeavesNoStoreOpen: Close lands at different
// points of a durable service's first build — a stall planned on one
// filesystem operation holds the build there. Whichever finishes first,
// every file the stores opened is closed once both return.
func TestCloseRacingFirstBuildLeavesNoStoreOpen(t *testing.T) {
	ctx := context.Background()
	suite := genedit.NewBenchmark(1)
	for _, op := range []int64{0, 2, 5, 10, 20, 1000} {
		ffs := kstore.NewFaultFS(kstore.OSFS)
		ffs.PlanDelay(op, 20*time.Millisecond)
		cfs := &countingFS{FS: ffs}
		svc := genedit.NewService(suite, genedit.WithStorePath(t.TempDir()), genedit.WithStoreFS(cfs))
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Engine(ctx, storeDB)
		}()
		time.Sleep(5 * time.Millisecond)
		svc.Close()
		wg.Wait()
		if n := cfs.open.Load(); n != 0 {
			t.Errorf("stall at op %d: %d store file(s) left open after Close and the build returned", op, n)
		}
	}
}

// countingFS counts the files opened through it and not yet closed.
type countingFS struct {
	kstore.FS
	open atomic.Int64
}

func (c *countingFS) track(f kstore.File, err error) (kstore.File, error) {
	if err != nil {
		return f, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm os.FileMode) (kstore.File, error) {
	return c.track(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) Open(name string) (kstore.File, error) { return c.track(c.FS.Open(name)) }

func (c *countingFS) CreateTemp(dir, pattern string) (kstore.File, error) {
	return c.track(c.FS.CreateTemp(dir, pattern))
}

type countedFile struct {
	kstore.File
	fs     *countingFS
	closed atomic.Bool
}

func (f *countedFile) Close() error {
	if !f.closed.Swap(true) {
		f.fs.open.Add(-1)
	}
	return f.File.Close()
}
