package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"
)

// Op names a class of state-changing filesystem operation. FaultFS counts
// these (reads are free: a crash between reads changes nothing on disk),
// and fault rules match on them.
type Op string

const (
	OpCreate   Op = "create"   // OpenFile with O_CREATE, CreateTemp
	OpWrite    Op = "write"    // File.Write
	OpSync     Op = "sync"     // File.Sync
	OpTruncate Op = "truncate" // File.Truncate
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdir    Op = "mkdir"
	OpSyncDir  Op = "syncdir"
	// OpStat is a read, so it is not counted and Op "" does not match it;
	// only a rule naming it fails Stat.
	OpStat Op = "stat"
)

var (
	// ErrInjected is the base error for scripted faults. Injected errors
	// wrap it, so callers test with errors.Is(err, vfs.ErrInjected).
	ErrInjected = errors.New("vfs: injected fault")
	// ErrNoSpace is an injected ENOSPC.
	ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)
	// ErrCrashed is returned by every operation attempted after the
	// crash point set by CrashAfter.
	ErrCrashed = errors.New("vfs: crashed (operation after crash point)")
)

// Fault is one scripted failure rule. A rule fires when an operation
// matches Op (empty = any counted op) and Path (substring, empty = any),
// and either the global operation index equals AtOp, or this is the Nth
// matching operation, or neither is set (the rule fires on every match
// until removed — a persistent fault, e.g. "every fsync fails").
type Fault struct {
	Op   Op     // operation class to match; "" matches any
	Path string // substring of the target path; "" matches any
	AtOp int    // fire when the global counted-op index equals this (1-based)
	Nth  int    // fire on the Nth matching operation (1-based)
	Err  error  // error to return; nil means ErrInjected
	// TornBytes: for OpWrite rules, persist only this prefix of the
	// buffer before failing — a torn write. Zero persists nothing.
	TornBytes int

	seen  int
	spent bool
}

// FaultFS wraps an inner FS (normally OS over a test temp dir), counts
// every state-changing operation, and injects scripted faults. It is the
// engine's disk-failure test double: the op counter is the enumeration
// domain for the crash-point soak, and fault rules model ENOSPC, failed
// fsyncs, and torn writes.
type FaultFS struct {
	inner FS

	mu          sync.Mutex
	ops         int
	perOp       map[Op]int
	written     int64
	writeBudget int64 // bytes of Write allowed before ENOSPC; <0 = unlimited
	crashAfter  int   // ops beyond this index fail; <0 = disabled
	crashed     bool
	faults      []*Fault
}

// NewFault returns a FaultFS over inner with no faults scripted.
func NewFault(inner FS) *FaultFS {
	return &FaultFS{
		inner:       inner,
		perOp:       make(map[Op]int),
		writeBudget: -1,
		crashAfter:  -1,
	}
}

// AddFault registers a fault rule.
func (f *FaultFS) AddFault(rule Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r := rule
	f.faults = append(f.faults, &r)
}

// ClearFaults removes all fault rules ("the disk recovered"). The crash
// point and write budget are cleared too; counters are preserved.
func (f *FaultFS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.faults = nil
	f.crashAfter = -1
	f.crashed = false
	f.writeBudget = -1
}

// CrashAfter arranges for the first n counted operations to succeed and
// every operation after them — reads included — to fail with ErrCrashed,
// with no on-disk effect. n=0 fails everything. This freezes the backing
// directory at an arbitrary I/O interleaving so a recovery pass can be
// run against it.
func (f *FaultFS) CrashAfter(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashAfter = n
}

// SetWriteBudget allows k more bytes of Write across all files; a write
// that would exceed the budget persists only the prefix that fits and
// fails with ErrNoSpace. Negative k removes the limit.
func (f *FaultFS) SetWriteBudget(k int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writeBudget = k
	f.written = 0
}

// Ops returns the number of counted (state-changing) operations attempted.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// OpCount returns how many operations of one class were attempted.
func (f *FaultFS) OpCount(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.perOp[op]
}

// Crashed reports whether the crash point has been passed.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// begin accounts one counted operation and decides its fate: the number
// of bytes to persist (writes only; -1 = all) and the error to return.
func (f *FaultFS) begin(op Op, path string, n int) (persist int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	f.perOp[op]++
	if f.crashed || (f.crashAfter >= 0 && f.ops > f.crashAfter) {
		f.crashed = true
		return 0, ErrCrashed
	}
	if torn, err := f.matchLocked(op, path, n); err != nil {
		return torn, err
	}
	if op == OpWrite && f.writeBudget >= 0 {
		remaining := f.writeBudget - f.written
		if remaining < 0 {
			remaining = 0
		}
		if int64(n) > remaining {
			f.written += remaining
			return int(remaining), ErrNoSpace
		}
	}
	if op == OpWrite {
		f.written += int64(n)
	}
	return -1, nil
}

// matchLocked fires the first live rule matching the operation, returning
// the bytes to persist and its error, or a nil error when none matches.
// Called with f.mu held.
func (f *FaultFS) matchLocked(op Op, path string, n int) (int, error) {
	for _, r := range f.faults {
		if r.spent {
			continue
		}
		if r.Op != op && (r.Op != "" || op == OpStat) {
			continue // Op "" matches every counted op, never a stat
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		switch {
		case r.AtOp > 0:
			if f.ops != r.AtOp {
				continue
			}
			r.spent = true
		case r.Nth > 0:
			r.seen++
			if r.seen != r.Nth {
				continue
			}
			r.spent = true
		}
		ferr := r.Err
		if ferr == nil {
			ferr = ErrInjected
		}
		return min(r.TornBytes, n), ferr
	}
	return -1, nil
}

// blocked is the gate for uncounted (read-only) operations: they pass
// through freely unless the crash point has been reached.
func (f *FaultFS) blocked() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if flag&os.O_CREATE != 0 {
		if _, err := f.begin(OpCreate, name, 0); err != nil {
			return nil, err
		}
	} else if err := f.blocked(); err != nil {
		return nil, err
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if err := f.blocked(); err != nil {
		return nil, err
	}
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if _, err := f.begin(OpCreate, dir+"/"+pattern, 0); err != nil {
		return nil, err
	}
	inner, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if _, err := f.begin(OpRename, newpath, 0); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	if _, err := f.begin(OpRemove, name, 0); err != nil {
		return err
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	if _, err := f.begin(OpMkdir, path, 0); err != nil {
		return err
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := f.blocked(); err != nil {
		return nil, err
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if err := f.blocked(); err != nil {
		return nil, err
	}
	f.mu.Lock()
	_, err := f.matchLocked(OpStat, name, 0)
	f.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) SyncDir(dir string) error {
	if _, err := f.begin(OpSyncDir, dir, 0); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// faultFile routes the mutating file operations back through the parent
// FaultFS's fault logic.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Read(p []byte) (int, error) {
	if err := f.fs.blocked(); err != nil {
		return 0, err
	}
	return f.inner.Read(p)
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.blocked(); err != nil {
		return 0, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Seek(offset int64, whence int) (int64, error) {
	if err := f.fs.blocked(); err != nil {
		return 0, err
	}
	return f.inner.Seek(offset, whence)
}

func (f *faultFile) Write(p []byte) (int, error) {
	persist, err := f.fs.begin(OpWrite, f.inner.Name(), len(p))
	if err != nil {
		n := 0
		if persist > 0 {
			// A torn write: the prefix reaches the file, then the
			// failure hits. The caller sees the error with a short
			// count, exactly like a real partial write.
			n, _ = f.inner.Write(p[:persist])
		}
		return n, err
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	if _, err := f.fs.begin(OpSync, f.inner.Name(), 0); err != nil {
		return err
	}
	return f.inner.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if _, err := f.fs.begin(OpTruncate, f.inner.Name(), 0); err != nil {
		return err
	}
	return f.inner.Truncate(size)
}

func (f *faultFile) Close() error { return f.inner.Close() }
func (f *faultFile) Name() string { return f.inner.Name() }
