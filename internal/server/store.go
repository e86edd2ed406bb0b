package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"netalignmc/internal/core"
	"netalignmc/internal/faults"
	"netalignmc/internal/problemio"
)

// Fault points of the spool's atomic writes, one pair per durable
// file: the payload write ("spool:write:<base>") supports injected
// EIO/ENOSPC/short-writes, the rename ("spool:rename:<base>")
// injected errors. The crash hook's "before-rename:<base>" /
// "after-rename:<base>" points (simulated process death) are separate
// and test-installed per Store. Registered here so chaos tests can
// enumerate every spool failure site.
func init() {
	for _, base := range []string{"job.json", "problem.txt", "result.json", "checkpoint.ckpt"} {
		faults.RegisterWritePoint("spool:write:" + base)
		faults.RegisterPoint("spool:rename:" + base)
	}
}

// Store is the durable spool directory. Every job owns one
// subdirectory named by its id:
//
//	<spool>/<id>/job.json        — Meta (spec + lifecycle state)
//	<spool>/<id>/problem.txt     — the problem, canonicalized at
//	                               submit time (Spec.canonicalProblem)
//	                               so every (re)run solves
//	                               byte-identical input
//	<spool>/<id>/checkpoint.ckpt — latest solver checkpoint (atomic)
//	<spool>/<id>/result.json     — final core.ResultJSON
//
// All writes are atomic (temp file + fsync + rename + parent-dir
// fsync), so a crash never leaves a truncated record behind and a
// completed rename is durable; recovery trusts whatever renamed last.
type Store struct {
	dir string
	// crash, when non-nil, simulates a process crash at named points
	// inside the atomic write paths (see internal/faults.Plan.Crash);
	// tests only. The hook returning an error aborts the remaining
	// steps exactly as a real crash would.
	crash func(point string) error
}

// SetCrashHook installs a simulated-crash hook (tests only; nil
// removes it).
func (s *Store) SetCrashHook(h func(point string) error) { s.crash = h }

// crashAt consults the crash hook.
func (s *Store) crashAt(point string) error {
	if s.crash == nil {
		return nil
	}
	return s.crash(point)
}

var jobIDPattern = regexp.MustCompile(`^[0-9a-f]{16}$`)

// NewStore opens (creating if needed) a spool directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: empty spool directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: spool: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the spool root.
func (s *Store) Dir() string { return s.dir }

// JobDir returns a job's directory path.
func (s *Store) JobDir(id string) string { return filepath.Join(s.dir, id) }

// CheckpointPath returns a job's checkpoint file path.
func (s *Store) CheckpointPath(id string) string {
	return filepath.Join(s.dir, id, "checkpoint.ckpt")
}

// CreateJob makes the job's directory.
func (s *Store) CreateJob(id string) error {
	if err := os.MkdirAll(s.JobDir(id), 0o755); err != nil {
		return fmt.Errorf("server: create job %s: %w", id, err)
	}
	return nil
}

// atomicWrite writes data via a temp file, fsync, rename, and a
// parent-directory fsync. The final fsync is what makes the rename
// itself durable: without it a crash can roll the directory entry
// back to the previous version (resurrecting a superseded job state)
// or drop it entirely (orphaning the job), even though the file's own
// contents were synced. The crash points bracket the rename so the
// durability tests can kill the write on either side of it.
func (s *Store) atomicWrite(path string, data []byte) error {
	dir, base := filepath.Dir(path), filepath.Base(path)
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := faults.WriteOp("spool:write:"+base, tmp, data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := s.crashAt("before-rename:" + base); err != nil {
		return err
	}
	if err := faults.Inject("spool:rename:" + base); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	if err := s.crashAt("after-rename:" + base); err != nil {
		return err
	}
	return problemio.SyncDir(dir)
}

// SaveMeta persists a job record.
func (s *Store) SaveMeta(m *Meta) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("server: meta %s: %w", m.ID, err)
	}
	if err := s.atomicWrite(filepath.Join(s.JobDir(m.ID), "job.json"), data); err != nil {
		return fmt.Errorf("server: meta %s: %w", m.ID, err)
	}
	return nil
}

// LoadMeta reads a job record back.
func (s *Store) LoadMeta(id string) (*Meta, error) {
	data, err := os.ReadFile(filepath.Join(s.JobDir(id), "job.json"))
	if err != nil {
		return nil, fmt.Errorf("server: meta %s: %w", id, err)
	}
	m := &Meta{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("server: meta %s: %w", id, err)
	}
	if m.ID != id {
		return nil, fmt.Errorf("server: meta %s names job %q", id, m.ID)
	}
	if !validState(m.State) {
		return nil, fmt.Errorf("server: meta %s has unknown state %q", id, m.State)
	}
	return m, nil
}

// SaveProblemBytes persists already-canonicalized problem bytes. The
// manager serializes each problem once — hashing the bytes for the
// result cache and spooling the same bytes here — so the cache key and
// the durable spool can never disagree.
func (s *Store) SaveProblemBytes(id string, data []byte) error {
	if err := s.atomicWrite(filepath.Join(s.JobDir(id), "problem.txt"), data); err != nil {
		return fmt.Errorf("server: problem %s: %w", id, err)
	}
	return nil
}

// LoadProblemBytes returns the raw canonical problem.txt bytes (the
// exact bytes the result cache keys hash).
func (s *Store) LoadProblemBytes(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.JobDir(id), "problem.txt"))
}

// LoadProblem reads the job's canonical problem. Every run — first or
// resumed — solves this file, so the solve input is byte-identical
// across restarts.
func (s *Store) LoadProblem(id string, threads int) (*core.Problem, error) {
	f, err := os.Open(filepath.Join(s.JobDir(id), "problem.txt"))
	if err != nil {
		return nil, fmt.Errorf("server: problem %s: %w", id, err)
	}
	defer f.Close()
	p, err := problemio.Read(f, threads)
	if err != nil {
		return nil, fmt.Errorf("server: problem %s: %w", id, err)
	}
	return p, nil
}

// SaveCheckpointBytes persists raw checkpoint bytes atomically — the
// receiving half of a drain handoff, which transports the sender's
// checkpoint.ckpt verbatim so the resumed run is bit-identical to one
// that never moved. (The solver's own checkpoints go through
// problemio.WriteCheckpointFile instead; both end in an atomic
// rename, so they never tear each other.)
func (s *Store) SaveCheckpointBytes(id string, data []byte) error {
	if err := s.atomicWrite(s.CheckpointPath(id), data); err != nil {
		return fmt.Errorf("server: checkpoint %s: %w", id, err)
	}
	return nil
}

// LoadCheckpointBytes returns the job's checkpoint.ckpt bytes verbatim
// (the sending half of a drain handoff); (nil, nil) when no checkpoint
// has been written yet.
func (s *Store) LoadCheckpointBytes(id string) ([]byte, error) {
	data, err := os.ReadFile(s.CheckpointPath(id))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("server: checkpoint %s: %w", id, err)
	}
	return data, nil
}

// LoadCheckpoint reads the job's latest checkpoint; (nil, nil) when no
// checkpoint has been written yet.
func (s *Store) LoadCheckpoint(id string) (*core.Checkpoint, error) {
	path := s.CheckpointPath(id)
	if _, err := os.Stat(path); errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	return problemio.ReadCheckpointFile(path)
}

// SaveResultBytes persists already-serialized result.json bytes (the
// path cache hits and coalesced followers take: the primary's bytes
// are copied verbatim, so every coalesced job's result is
// byte-identical).
func (s *Store) SaveResultBytes(id string, data []byte) error {
	if err := s.atomicWrite(filepath.Join(s.JobDir(id), "result.json"), data); err != nil {
		return fmt.Errorf("server: result %s: %w", id, err)
	}
	return nil
}

// LoadResult returns the raw result.json bytes, or fs.ErrNotExist.
func (s *Store) LoadResult(id string) ([]byte, error) {
	return os.ReadFile(filepath.Join(s.JobDir(id), "result.json"))
}

// OpenResult opens result.json for streaming and reports its size, so
// the HTTP layer can io.Copy it with a Content-Length instead of
// buffering the whole document. Returns fs.ErrNotExist when the job
// has no result yet.
func (s *Store) OpenResult(id string) (io.ReadCloser, int64, error) {
	f, err := os.Open(filepath.Join(s.JobDir(id), "result.json"))
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// incarnationFile is the spool-level record of how many times a
// daemon has started over this spool. Written atomically like every
// other spool record.
const incarnationFile = "incarnation.json"

type incarnationRecord struct {
	Incarnation int64 `json:"incarnation"`
}

// LoadIncarnation reads the spool's incarnation counter (0 for a
// fresh spool or an unreadable record — recovery treats an unknown
// history as no history).
func (s *Store) LoadIncarnation() int64 {
	data, err := os.ReadFile(filepath.Join(s.dir, incarnationFile))
	if err != nil {
		return 0
	}
	var rec incarnationRecord
	if err := json.Unmarshal(data, &rec); err != nil || rec.Incarnation < 0 {
		return 0
	}
	return rec.Incarnation
}

// BumpIncarnation increments and persists the spool's incarnation
// counter, returning the new value. Called once per daemon startup,
// before recovery scans the spool, so every job that enters running
// can record which incarnation ran it — the crash-loop detector
// compares that record against the previous incarnation to decide
// whether a mid-running job has been dying with the daemon
// consecutively.
func (s *Store) BumpIncarnation() (int64, error) {
	inc := s.LoadIncarnation() + 1
	data, err := json.MarshalIndent(incarnationRecord{Incarnation: inc}, "", "  ")
	if err != nil {
		return 0, fmt.Errorf("server: incarnation: %w", err)
	}
	if err := s.atomicWrite(filepath.Join(s.dir, incarnationFile), data); err != nil {
		return 0, fmt.Errorf("server: incarnation: %w", err)
	}
	return inc, nil
}

// ListJobs returns the ids of every job directory, sorted, skipping
// entries that do not look like job ids (temp files, strays).
func (s *Store) ListJobs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("server: spool scan: %w", err)
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && jobIDPattern.MatchString(e.Name()) {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids, nil
}
