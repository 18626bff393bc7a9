package kstore

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"time"
)

// ErrInjected is the sentinel every FaultFS-injected failure wraps.
// Recovery tests branch on it to distinguish injected faults from real
// filesystem errors (which would be a test-environment problem).
var ErrInjected = errors.New("kstore: injected fault")

// Fault is the kind of failure FaultFS injects at a planned operation.
type Fault int

const (
	// FaultErr fails the operation cleanly: no bytes reach the inner
	// filesystem. Models EIO/ENOSPC surfaced before any data landed.
	FaultErr Fault = iota
	// FaultPartial applies to writes: half the buffer lands in the inner
	// filesystem, then the call errors — a short write whose residue is a
	// torn record the next recovery must truncate. Non-write operations
	// degrade to FaultErr.
	FaultPartial
	// FaultCrash fails the operation (partially applying writes, like
	// FaultPartial) and then kills the filesystem: every subsequent
	// operation fails too, modelling a machine that died mid-syscall. The
	// on-disk state stays readable through a fresh FS — that is the state a
	// reopened store must recover from.
	FaultCrash
)

func (f Fault) String() string {
	switch f {
	case FaultErr:
		return "err"
	case FaultPartial:
		return "partial"
	case FaultCrash:
		return "crash"
	default:
		return fmt.Sprintf("fault(%d)", int(f))
	}
}

// FaultFS wraps an FS and injects failures by operation index: every
// filesystem call — opens, writes, fsyncs, renames, truncates — increments
// one shared counter, and a fault planned at index n fires on the n-th
// call. Deterministic given a deterministic caller, which is what lets the
// crash-fuzz harness sweep the fault point across an entire commit/compact
// interleaving.
type FaultFS struct {
	inner FS

	mu       sync.Mutex
	op       int64
	plan     map[int64]Fault
	delay    map[int64]time.Duration
	crashed  bool
	injected int64
}

// NewFaultFS wraps inner (normally OSFS over a temp dir).
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{
		inner: inner,
		plan:  make(map[int64]Fault),
		delay: make(map[int64]time.Duration),
	}
}

// PlanFault schedules a fault to fire on the op-th filesystem operation
// (0-based, counting every FS and File call).
func (f *FaultFS) PlanFault(op int64, fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.plan[op] = fault
}

// PlanDelay schedules added latency on the op-th operation (the operation
// itself succeeds). Models a stalling disk.
func (f *FaultFS) PlanDelay(op int64, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.delay[op] = d
}

// Ops reports how many operations have been issued — run a workload once
// fault-free to measure the op space, then sweep faults across [0, Ops).
func (f *FaultFS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.op
}

// Injected reports how many operations failed with an injected fault.
func (f *FaultFS) Injected() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// begin accounts one operation and returns the fault to apply, if any.
func (f *FaultFS) begin(what string) (Fault, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		f.injected++
		return 0, fmt.Errorf("%w: %s after crash", ErrInjected, what)
	}
	op := f.op
	f.op++
	if d, ok := f.delay[op]; ok {
		time.Sleep(d)
	}
	fault, ok := f.plan[op]
	if !ok {
		return 0, nil
	}
	f.injected++
	if fault == FaultCrash {
		f.crashed = true
	}
	return fault, fmt.Errorf("%w: %s at op %d (%s)", ErrInjected, what, op, fault)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if _, err := f.begin("mkdirall"); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	if _, err := f.begin("openfile"); err != nil {
		return nil, err
	}
	file, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if _, err := f.begin("open"); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if _, err := f.begin("readfile"); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.begin("createtemp"); err != nil {
		return nil, err
	}
	file, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.begin("rename"); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.begin("remove"); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if _, err := f.begin("readdir"); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if _, err := f.begin("truncate"); err != nil {
		return err
	}
	return f.inner.Truncate(name, size)
}

// faultFile routes file operations through the owning FaultFS's counter.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Name() string { return f.inner.Name() }

func (f *faultFile) Read(p []byte) (int, error) {
	if _, err := f.fs.begin("read"); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	fault, err := f.fs.begin("write")
	if err != nil {
		// A short write leaves a torn prefix behind — exactly what a crash
		// mid-append does to the WAL.
		if (fault == FaultPartial || fault == FaultCrash) && len(p) > 1 {
			n, _ := f.inner.Write(p[:len(p)/2])
			return n, err
		}
		return 0, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.begin("sync"); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.begin("ftruncate"); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Stat() (os.FileInfo, error) {
	if _, err := f.fs.begin("stat"); err != nil {
		return nil, err
	}
	return f.inner.Stat()
}

func (f *faultFile) Close() error {
	// Close is never failed: the store's cleanup paths (rollback, temp
	// removal) must be able to release handles even mid-crash, and the OS
	// releases descriptors on process death regardless.
	return f.inner.Close()
}
