package store

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// FS is the file layer the store runs on. Production uses the operating
// system (OSFS); tests use MemFS for determinism and FaultFS to inject
// torn writes, short reads, bit flips, and fsync-boundary crashes without
// touching real disks. The store only ever appends to open files and
// reads back with ReadAt, so the interface is deliberately narrow.
type FS interface {
	// OpenFile opens name for appending (creating it if absent) and
	// random-access reads.
	OpenFile(name string) (File, error)
	Remove(name string) error
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// ReadDir lists the file names (not paths) in dir.
	ReadDir(dir string) ([]string, error)
	MkdirAll(dir string) error
	// Truncate cuts name down to size bytes (torn-tail repair).
	Truncate(name string, size int64) error
}

// File is one open store file: appended at the end, read anywhere.
type File interface {
	io.ReaderAt
	// Write appends p at the end of the file.
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Size() (int64, error)
}

// OSFS is the real filesystem.
type OSFS struct{}

type osFile struct{ f *os.File }

func (OSFS) OpenFile(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &osFile{f: f}, nil
}

func (OSFS) Remove(name string) error               { return os.Remove(name) }
func (OSFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (OSFS) MkdirAll(dir string) error              { return os.MkdirAll(dir, 0o755) }
func (OSFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (OSFS) ReadDir(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(ents))
	for _, e := range ents {
		if !e.IsDir() {
			names = append(names, e.Name())
		}
	}
	return names, nil
}

func (f *osFile) ReadAt(p []byte, off int64) (int, error) { return f.f.ReadAt(p, off) }
func (f *osFile) Write(p []byte) (int, error)             { return f.f.Write(p) }
func (f *osFile) Sync() error                             { return f.f.Sync() }
func (f *osFile) Close() error                            { return f.f.Close() }

func (f *osFile) Size() (int64, error) {
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// MemFS is a deterministic in-memory filesystem for tests. It models the
// store's crash semantics exactly: bytes from completed Write calls are
// durable (process-kill model — the page cache survives SIGKILL), and a
// Snapshot of the byte state can be reopened as "the disk after the
// crash". Safe for concurrent use.
type MemFS struct {
	mu    sync.Mutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: map[string][]byte{}} }

type memFile struct {
	fs   *MemFS
	name string
}

func (m *MemFS) OpenFile(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return fmt.Errorf("remove %s: %w", name, os.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[oldname]
	if !ok {
		return fmt.Errorf("rename %s: %w", oldname, os.ErrNotExist)
	}
	m.files[newname] = b
	delete(m.files, oldname)
	return nil
}

func (m *MemFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range m.files {
		if rest, ok := cutPrefix(name, prefix); ok && rest != "" {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func cutPrefix(s, prefix string) (string, bool) {
	if len(s) >= len(prefix) && s[:len(prefix)] == prefix {
		return s[len(prefix):], true
	}
	return "", false
}

func (m *MemFS) MkdirAll(string) error { return nil }

func (m *MemFS) Truncate(name string, size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return fmt.Errorf("truncate %s: %w", name, os.ErrNotExist)
	}
	if size < 0 || size > int64(len(b)) {
		return fmt.Errorf("truncate %s to %d of %d", name, size, len(b))
	}
	m.files[name] = b[:size]
	return nil
}

// Snapshot deep-copies the current byte state — "the disk at this
// instant". Reopening a store on the snapshot simulates a crash here.
func (m *MemFS) Snapshot() *MemFS {
	m.mu.Lock()
	defer m.mu.Unlock()
	cp := NewMemFS()
	for name, b := range m.files {
		cp.files[name] = append([]byte(nil), b...)
	}
	return cp
}

// Corrupt XORs the byte at off in name with x — persistent bit-flip
// injection for recovery tests.
func (m *MemFS) Corrupt(name string, off int64, x byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return fmt.Errorf("corrupt %s: %w", name, os.ErrNotExist)
	}
	if off < 0 || off >= int64(len(b)) {
		return fmt.Errorf("corrupt %s at %d of %d", name, off, len(b))
	}
	b[off] ^= x
	return nil
}

// FileSize reports the size of name, or -1 if absent.
func (m *MemFS) FileSize(name string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.files[name]
	if !ok {
		return -1
	}
	return int64(len(b))
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("read %s: %w", f.name, os.ErrNotExist)
	}
	if off < 0 || off >= int64(len(b)) {
		return 0, io.EOF
	}
	n := copy(p, b[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("write %s: %w", f.name, os.ErrNotExist)
	}
	f.fs.files[f.name] = append(b, p...)
	return len(p), nil
}

func (f *memFile) Sync() error  { return nil }
func (f *memFile) Close() error { return nil }

func (f *memFile) Size() (int64, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	b, ok := f.fs.files[f.name]
	if !ok {
		return 0, fmt.Errorf("size %s: %w", f.name, os.ErrNotExist)
	}
	return int64(len(b)), nil
}

// ErrInjected is the error every FaultFS operation returns once its
// configured fault has fired — the store sees it exactly where a dying
// process would stop.
var ErrInjected = errors.New("store: injected fault")

// FaultFS wraps an FS and deterministically injects failures:
//
//   - WriteLimit n: the first n bytes of Write traffic succeed; the write
//     that crosses the limit is torn (its prefix lands, the rest does
//     not) and every subsequent operation fails — a crash at an arbitrary
//     write boundary.
//   - FailSyncAfter n: the n-th Sync call (1-based) fails and the fault
//     latches — an fsync-boundary crash.
//   - ShortReads: every ReadAt is cut one byte short of the requested
//     length, exercising partial-read handling.
//
// The zero value injects nothing. Not safe for concurrent use with
// reconfiguration; configure first, then run.
type FaultFS struct {
	Inner FS

	mu           sync.Mutex
	writeLimit   int64 // -1 = unlimited
	written      int64
	failSyncLeft int // counts down; fires at 0
	shortReads   bool
	crashed      bool
}

// NewFaultFS wraps inner with no faults armed.
func NewFaultFS(inner FS) *FaultFS {
	return &FaultFS{Inner: inner, writeLimit: -1, failSyncLeft: -1}
}

// SetWriteLimit arms the torn-write crash after n total bytes.
func (f *FaultFS) SetWriteLimit(n int64) { f.mu.Lock(); f.writeLimit = n; f.mu.Unlock() }

// SetFailSyncAfter makes the n-th subsequent Sync call fail (1-based).
func (f *FaultFS) SetFailSyncAfter(n int) { f.mu.Lock(); f.failSyncLeft = n; f.mu.Unlock() }

// SetShortReads toggles one-byte-short ReadAt results.
func (f *FaultFS) SetShortReads(v bool) { f.mu.Lock(); f.shortReads = v; f.mu.Unlock() }

func (f *FaultFS) gate() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrInjected
	}
	return nil
}

func (f *FaultFS) OpenFile(name string) (File, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	inner, err := f.Inner.OpenFile(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Remove(name string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Inner.Remove(name)
}

func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Inner.Rename(oldname, newname)
}

func (f *FaultFS) ReadDir(dir string) ([]string, error) {
	if err := f.gate(); err != nil {
		return nil, err
	}
	return f.Inner.ReadDir(dir)
}

func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Inner.MkdirAll(dir)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	if err := f.gate(); err != nil {
		return err
	}
	return f.Inner.Truncate(name, size)
}

type faultFile struct {
	fs    *FaultFS
	inner File
}

func (f *faultFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	if f.fs.crashed {
		f.fs.mu.Unlock()
		return 0, ErrInjected
	}
	allow := len(p)
	if f.fs.writeLimit >= 0 {
		if left := f.fs.writeLimit - f.fs.written; int64(allow) > left {
			allow = int(max(left, 0))
			f.fs.crashed = true
		}
	}
	f.fs.written += int64(allow)
	f.fs.mu.Unlock()
	if allow > 0 {
		if n, err := f.inner.Write(p[:allow]); err != nil {
			return n, err
		}
	}
	if allow < len(p) {
		return allow, ErrInjected
	}
	return allow, nil
}

func (f *faultFile) Sync() error {
	f.fs.mu.Lock()
	if f.fs.crashed {
		f.fs.mu.Unlock()
		return ErrInjected
	}
	if f.fs.failSyncLeft > 0 {
		f.fs.failSyncLeft--
		if f.fs.failSyncLeft == 0 {
			f.fs.crashed = true
			f.fs.mu.Unlock()
			return ErrInjected
		}
	}
	f.fs.mu.Unlock()
	return f.inner.Sync()
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.fs.gate(); err != nil {
		return 0, err
	}
	f.fs.mu.Lock()
	short := f.fs.shortReads
	f.fs.mu.Unlock()
	// A 1-byte read cannot be cut short without never making progress;
	// deliver it so retry loops terminate, as a real kernel would.
	if short && len(p) > 1 {
		n, err := f.inner.ReadAt(p[:len(p)-1], off)
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return n, err
	}
	return f.inner.ReadAt(p, off)
}

func (f *faultFile) Close() error { return f.inner.Close() }

func (f *faultFile) Size() (int64, error) {
	if err := f.fs.gate(); err != nil {
		return 0, err
	}
	return f.inner.Size()
}
