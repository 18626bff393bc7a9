// Package kstore is the durable, crash-safe persistence layer for a
// knowledge set (one store per database). GenEdit's continuous-improvement
// claim (§4) only holds in production if approved SME edits survive
// restarts; kstore gives the serving layer that durability with a classic
// WAL + snapshot design:
//
//   - wal.log — an append-only JSON-lines write-ahead log. Each line frames
//     one knowledge.ChangeEvent with a CRC32 of its serialized form. Commit
//     appends the set's new history tail and fsyncs before returning, so an
//     acknowledged approval is on disk.
//   - snapshot-<version>.json — a full knowledge.State, written by
//     compaction via temp file + atomic rename (+ directory fsync), after
//     which the WAL is truncated. Older snapshots are kept as fallbacks and
//     pruned to a small window.
//
// Open recovers by loading the newest readable snapshot and replaying the
// WAL tail through knowledge.ApplyEvent. A torn final WAL record (the
// tail a crash mid-append leaves behind) is detected by CRC/parse failure
// and truncated; corruption before the tail is refused. Because events are
// full-fidelity and insertion-ordered, the recovered set is event-for-event
// identical to the pre-crash one — same contents, version, audit history
// and checkpoints — so a rebuilt engine generates bit-identical SQL.
package kstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"genedit/internal/knowledge"
)

const walName = "wal.log"

// DefaultCompactEvery is the WAL-record count that triggers automatic
// compaction on Commit.
const DefaultCompactEvery = 512

// DefaultKeepSnapshots is how many snapshot generations survive pruning.
const DefaultKeepSnapshots = 2

// ErrClosed reports an operation on a closed store.
var ErrClosed = errors.New("kstore: store is closed")

// Option configures a Store.
type Option func(*Store)

// WithCompactEvery sets the WAL-record threshold for automatic compaction
// during Commit (default DefaultCompactEvery; 0 disables auto-compaction).
func WithCompactEvery(n int) Option { return func(s *Store) { s.compactEvery = n } }

// WithKeepSnapshots sets how many snapshot generations to retain (minimum
// 1; default DefaultKeepSnapshots).
func WithKeepSnapshots(n int) Option {
	return func(s *Store) {
		if n < 1 {
			n = 1
		}
		s.keepSnapshots = n
	}
}

// WithFS substitutes the filesystem the store writes through (default
// OSFS). Durability tests pass a FaultFS to inject failures at exact
// operation boundaries.
func WithFS(fs FS) Option { return func(s *Store) { s.fs = fs } }

// Store is the durable backing of one database's knowledge set.
//
// Concurrency contract: all methods are safe for concurrent use; Commit and
// Compact serialize on an internal mutex. The Store never retains the sets
// it is given — callers keep ownership of their (immutable, hot-swapped)
// live sets and pass the latest generation to Commit.
type Store struct {
	dir string
	fs  FS

	mu            sync.Mutex
	wal           File
	walRecords    int
	walSize       int64
	lastSeq       int
	snapVersion   int
	compactEvery  int
	keepSnapshots int
	recovered     *knowledge.Set
	closed        bool
	// lastEvent is the serialized form of the event at lastSeq — the
	// lineage anchor. A Commit whose set does not contain this exact event
	// at that seq has forked from the durable history and is refused.
	lastEvent []byte
	// broken is set when the WAL could not be restored to a consistent
	// state after a failed append; all further writes are refused.
	broken error
	// compactErr remembers the last automatic-compaction failure (commits
	// themselves stayed durable); cleared on the next success.
	compactErr error
	// metrics holds the store's instruments (WithMetrics); the zero value
	// is a no-op.
	metrics storeMetrics
}

// walRecord frames one event on a WAL line. The CRC covers the serialized
// event bytes, catching both torn writes and bit rot.
type walRecord struct {
	CRC   uint32          `json:"crc"`
	Event json.RawMessage `json:"event"`
}

// Open opens (creating if needed) the store rooted at dir and recovers its
// knowledge set: newest readable snapshot + WAL tail replay. A torn final
// WAL record is truncated away; earlier corruption is an error.
func Open(dir string, opts ...Option) (*Store, error) {
	s := &Store{
		dir:           dir,
		fs:            OSFS,
		compactEvery:  DefaultCompactEvery,
		keepSnapshots: DefaultKeepSnapshots,
	}
	for _, opt := range opts {
		opt(s)
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("kstore: creating %s: %w", dir, err)
	}

	set, snapVersion, err := s.loadLatestSnapshot()
	if err != nil {
		return nil, err
	}
	s.snapVersion = snapVersion

	events, kept, err := s.recoverWAL()
	if err != nil {
		return nil, err
	}
	for _, ev := range events {
		if ev.Seq <= set.LastSeq() {
			// Already contained in the snapshot: a crash between snapshot
			// rename and WAL truncation leaves this overlap behind.
			continue
		}
		if err := set.ApplyEvent(ev); err != nil {
			return nil, fmt.Errorf("kstore: WAL replay: %w", err)
		}
	}
	s.walRecords = kept
	s.lastSeq = set.LastSeq()
	s.recovered = set
	if s.lastSeq > 0 {
		tail := set.HistorySince(s.lastSeq - 1)
		if len(tail) == 0 {
			// A snapshot whose next_seq exceeds its history is semantically
			// inconsistent; refuse it cleanly rather than panicking.
			return nil, fmt.Errorf("kstore: recovered set has no event at seq %d (inconsistent snapshot)", s.lastSeq)
		}
		if s.lastEvent, err = json.Marshal(tail[0]); err != nil {
			return nil, fmt.Errorf("kstore: fingerprinting recovered history: %w", err)
		}
	}

	wal, err := s.fs.OpenFile(s.walPath(), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("kstore: opening WAL: %w", err)
	}
	s.wal = wal
	// The size must be exact — rollbackWAL truncates to this boundary after
	// a failed append, so guessing low would discard acknowledged records.
	fi, err := wal.Stat()
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("kstore: sizing WAL: %w", err)
	}
	s.walSize = fi.Size()
	return s, nil
}

// Recovered returns the knowledge set reconstructed at Open — an empty set
// for a fresh store — and transfers ownership: the store drops its
// reference so superseded knowledge generations can be collected, and
// subsequent calls return nil. The caller serves/mutates the set under its
// own regime.
func (s *Store) Recovered() *knowledge.Set {
	s.mu.Lock()
	defer s.mu.Unlock()
	set := s.recovered
	s.recovered = nil
	return set
}

// Empty reports whether the store held no persisted state at Open — the
// signal for the service to seed-build the knowledge set.
func (s *Store) Empty() bool { return s.lastSeq == 0 }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// LastSeq reports the highest event sequence durably persisted.
func (s *Store) LastSeq() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeq
}

// SnapshotVersion reports the knowledge version of the newest snapshot (0
// when none has been written).
func (s *Store) SnapshotVersion() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snapVersion
}

// Commit appends the set's history events newer than the last persisted
// sequence to the WAL and fsyncs before returning — the durability point
// for an approved change. When the WAL grows past the compaction threshold
// the set is also snapshotted and the log truncated.
func (s *Store) Commit(set *knowledge.Set) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.appendLocked(set); err != nil {
		return err
	}
	if s.compactEvery > 0 && s.walRecords >= s.compactEvery {
		// The append above already fsynced — the commit IS durable. A
		// compaction failure here must not fail the commit (the caller
		// would report an approval as failed that a restart resurrects,
		// and its in-memory state would fall behind the log, wedging every
		// later commit on the lineage check). Compaction is maintenance:
		// remember the error and retry on the next commit, since
		// walRecords stays over the threshold.
		if err := s.compactLocked(set); err != nil {
			s.compactErr = err
		} else {
			s.compactErr = nil
		}
	}
	return nil
}

// CompactionErr reports the most recent automatic-compaction failure, nil
// when the last attempt succeeded. Commits stay durable regardless; this
// is an operational signal that the WAL is not being truncated.
func (s *Store) CompactionErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactErr
}

// Failed reports whether the store has refused further writes: set when a
// failed WAL append could not be rolled back to the last durable boundary,
// so accepting more commits could corrupt the log beyond recovery. nil
// means the store is healthy. Unlike CompactionErr this is terminal — the
// serving layer's readiness probe treats a failed store as not-ready.
func (s *Store) Failed() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.broken
}

// appendLocked writes the set's unpersisted history tail to the WAL and
// fsyncs. Caller holds s.mu.
func (s *Store) appendLocked(set *knowledge.Set) error {
	if s.broken != nil {
		return fmt.Errorf("kstore: store is failed: %w", s.broken)
	}
	if set.LastSeq() < s.lastSeq {
		return fmt.Errorf("kstore: set at seq %d is behind the store (seq %d)", set.LastSeq(), s.lastSeq)
	}
	// Lineage check: the committing set must contain the exact event the
	// store persisted last at that seq. A set whose history forked from
	// the durable log (e.g. one built by a second process writing the same
	// directory) is refused instead of silently losing its edits or
	// splicing incompatible events into the log.
	if s.lastSeq > 0 {
		tail := set.HistorySince(s.lastSeq - 1)
		if len(tail) == 0 {
			return fmt.Errorf("kstore: set has no event at persisted seq %d", s.lastSeq)
		}
		anchor, err := json.Marshal(tail[0])
		if err != nil {
			return fmt.Errorf("kstore: encoding lineage anchor: %w", err)
		}
		if string(anchor) != string(s.lastEvent) {
			return fmt.Errorf("kstore: set history diverged from the durable log at seq %d (another writer committed first; rebuild from the current live set)", s.lastSeq)
		}
	}
	events := set.HistorySince(s.lastSeq)
	if len(events) == 0 {
		return nil
	}
	appendStart := time.Now()
	var buf, lastRaw []byte
	for _, ev := range events {
		raw, err := json.Marshal(ev)
		if err != nil {
			return fmt.Errorf("kstore: encoding event seq %d: %w", ev.Seq, err)
		}
		line, err := json.Marshal(walRecord{CRC: crc32.ChecksumIEEE(raw), Event: raw})
		if err != nil {
			return err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
		lastRaw = raw
	}
	if _, err := s.wal.Write(buf); err != nil {
		// A partial write (ENOSPC, I/O error) leaves residue that a later
		// successful append would seal into the middle of the log; roll the
		// file back to the last durable boundary so the store stays usable.
		s.rollbackWAL()
		return fmt.Errorf("kstore: appending WAL: %w", err)
	}
	syncStart := time.Now()
	if err := s.wal.Sync(); err != nil {
		// The write may or may not have reached disk; it was never
		// acknowledged, so restoring the pre-append boundary is safe.
		s.rollbackWAL()
		return fmt.Errorf("kstore: fsync WAL: %w", err)
	}
	done := time.Now()
	s.metrics.fsyncSec.Observe(done.Sub(syncStart).Seconds())
	s.metrics.appendSec.Observe(done.Sub(appendStart).Seconds())
	s.lastSeq = set.LastSeq()
	s.walRecords += len(events)
	s.walSize += int64(len(buf))
	s.lastEvent = lastRaw
	s.metrics.walRecords.Set(float64(s.walRecords))
	return nil
}

// rollbackWAL truncates the log back to the last acknowledged boundary
// after a failed append. If even that fails, the store is marked failed:
// accepting further commits could corrupt the log beyond recovery.
func (s *Store) rollbackWAL() {
	if err := s.wal.Truncate(s.walSize); err != nil {
		s.broken = fmt.Errorf("WAL rollback to %d bytes failed: %w", s.walSize, err)
		s.metrics.unhealthy.Set(1)
	}
}

// Compact writes a full versioned snapshot of the set and truncates the
// WAL. The snapshot lands via temp file + atomic rename, so a crash at any
// point leaves either the old or the new snapshot readable, never a
// partial one; the WAL is truncated only after the rename is durable.
func (s *Store) Compact(set *knowledge.Set) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	// Make sure every event is in the log first, so a crash mid-compaction
	// still recovers the full state from snapshot+WAL.
	if err := s.appendLocked(set); err != nil {
		return err
	}
	return s.compactLocked(set)
}

// compactLocked wraps the compaction work with its instrumentation:
// successful compactions count and report their duration, failures count
// separately (the caller decides whether a failure is fatal — auto-compaction
// during Commit retries on the next commit).
func (s *Store) compactLocked(set *knowledge.Set) error {
	start := time.Now()
	if err := s.doCompactLocked(set); err != nil {
		s.metrics.compactErrs.Inc()
		return err
	}
	s.metrics.compactions.Inc()
	s.metrics.compactSec.Observe(time.Since(start).Seconds())
	return nil
}

func (s *Store) doCompactLocked(set *knowledge.Set) error {
	version := set.Version()
	tmp, err := s.fs.CreateTemp(s.dir, "snapshot-*.tmp")
	if err != nil {
		return fmt.Errorf("kstore: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	enc := json.NewEncoder(tmp)
	if err := enc.Encode(set.State()); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return fmt.Errorf("kstore: encoding snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		s.fs.Remove(tmpName)
		return fmt.Errorf("kstore: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmpName)
		return err
	}
	final := s.snapshotPath(version)
	if err := s.fs.Rename(tmpName, final); err != nil {
		s.fs.Remove(tmpName)
		return fmt.Errorf("kstore: publishing snapshot: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable; the WAL's contents are now redundant.
	if err := s.truncateWAL(); err != nil {
		return err
	}
	s.snapVersion = version
	s.lastSeq = set.LastSeq()
	s.pruneSnapshots()
	return nil
}

// truncateWAL resets the log after a successful compaction.
func (s *Store) truncateWAL() error {
	if s.wal != nil {
		if err := s.wal.Close(); err != nil {
			return err
		}
	}
	// O_APPEND is load-bearing: rollbackWAL may shrink the file after a
	// failed append, and an append-mode handle repositions to the new end.
	// A plain O_WRONLY handle would keep its old offset and zero-fill the
	// gap on the next write, corrupting the middle of the log.
	wal, err := s.fs.OpenFile(s.walPath(), os.O_WRONLY|os.O_CREATE|os.O_TRUNC|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("kstore: truncating WAL: %w", err)
	}
	if err := wal.Sync(); err != nil {
		wal.Close()
		return err
	}
	s.wal = wal
	s.walRecords = 0
	s.walSize = 0
	s.metrics.walRecords.Set(0)
	return nil
}

// pruneSnapshots deletes all but the newest keepSnapshots snapshot files.
// Best-effort: pruning failures leave extra fallbacks behind, never lose
// data.
func (s *Store) pruneSnapshots() {
	versions := s.snapshotVersions()
	if len(versions) <= s.keepSnapshots {
		return
	}
	for _, v := range versions[:len(versions)-s.keepSnapshots] {
		s.fs.Remove(s.snapshotPath(v))
	}
}

// Close releases the WAL handle. The store must not be used afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.wal != nil {
		return s.wal.Close()
	}
	return nil
}

func (s *Store) walPath() string { return filepath.Join(s.dir, walName) }

func (s *Store) snapshotPath(version int) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%010d.json", version))
}

// snapshotVersions lists on-disk snapshot versions, ascending.
func (s *Store) snapshotVersions() []int {
	entries, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		var v int
		if _, err := fmt.Sscanf(name, "snapshot-%d.json", &v); err == nil {
			out = append(out, v)
		}
	}
	sort.Ints(out)
	return out
}

// loadLatestSnapshot loads the newest readable snapshot, falling back to
// older generations if the newest is corrupt (e.g. bit rot — atomic rename
// already rules out partial writes). Returns an empty set when no snapshot
// is usable.
func (s *Store) loadLatestSnapshot() (*knowledge.Set, int, error) {
	versions := s.snapshotVersions()
	for i := len(versions) - 1; i >= 0; i-- {
		raw, err := s.fs.ReadFile(s.snapshotPath(versions[i]))
		if err != nil {
			continue
		}
		var st knowledge.State
		if err := json.Unmarshal(raw, &st); err != nil {
			continue
		}
		return knowledge.FromState(&st), versions[i], nil
	}
	return knowledge.NewSet(), 0, nil
}

// recoverWAL reads the log, returning its decoded events and record count.
// A torn final record is truncated from the file; corruption followed by
// further data is refused as unrecoverable.
func (s *Store) recoverWAL() ([]knowledge.ChangeEvent, int, error) {
	f, err := s.fs.Open(s.walPath())
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, fmt.Errorf("kstore: opening WAL: %w", err)
	}
	defer f.Close()

	var (
		events  []knowledge.ChangeEvent
		goodEnd int64
		r       = bufio.NewReader(f)
	)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 && errors.Is(err, io.EOF) {
			break
		}
		torn := errors.Is(err, io.EOF) // final line without newline
		if err != nil && !torn {
			return nil, 0, fmt.Errorf("kstore: reading WAL: %w", err)
		}
		ev, decErr := decodeWALLine(line)
		if decErr != nil || torn {
			// Only acceptable as the very tail of the log.
			if rest, _ := io.ReadAll(r); len(strings.TrimSpace(string(rest))) > 0 {
				return nil, 0, fmt.Errorf("kstore: corrupt WAL record before tail: %v", decErr)
			}
			if err := s.fs.Truncate(s.walPath(), goodEnd); err != nil {
				return nil, 0, fmt.Errorf("kstore: truncating torn WAL tail: %w", err)
			}
			break
		}
		events = append(events, ev)
		goodEnd += int64(len(line))
	}
	return events, len(events), nil
}

// decodeWALLine parses and CRC-checks one WAL line.
func decodeWALLine(line []byte) (knowledge.ChangeEvent, error) {
	var rec walRecord
	if err := json.Unmarshal(line, &rec); err != nil {
		return knowledge.ChangeEvent{}, fmt.Errorf("parse: %w", err)
	}
	if crc32.ChecksumIEEE(rec.Event) != rec.CRC {
		return knowledge.ChangeEvent{}, errors.New("crc mismatch")
	}
	var ev knowledge.ChangeEvent
	if err := json.Unmarshal(rec.Event, &ev); err != nil {
		return knowledge.ChangeEvent{}, fmt.Errorf("event parse: %w", err)
	}
	return ev, nil
}

// syncDir fsyncs the store directory so a just-renamed file is durable.
func (s *Store) syncDir() error {
	d, err := s.fs.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("kstore: fsync dir %s: %w", s.dir, err)
	}
	return nil
}
