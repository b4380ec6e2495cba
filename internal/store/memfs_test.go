package store_test

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"parulel/internal/wal"
)

// memFS is an in-memory wal.FS that remembers, beside what every file and
// directory holds, what a crash would leave of it: a file's bytes as of
// its last Sync, a directory's entries as of its last SyncDir. Before
// each mutating operation (create, write, truncate, sync, rename, remove,
// mkdir, dir-sync) it calls hook, which may take crash images of the
// state so far or fail the operation.
type memFS struct {
	mu   sync.Mutex
	root *node
	ops  int
	hook func(op op) error
}

// op is one mutating operation about to run: its kind, path and ordinal
// (from 1).
type op struct {
	kind string
	path string
	k    int
}

type node struct {
	dir             bool
	entries, synced map[string]*node // a directory's live and durable entries
	data, durable   []byte           // a file's live and durable bytes
}

func newDir() *node { return &node{dir: true, entries: map[string]*node{}, synced: map[string]*node{}} }

// newMemFS returns a filesystem holding the directories named, durably.
func newMemFS(dirs ...string) *memFS {
	m := &memFS{root: newDir()}
	for _, d := range dirs {
		n := m.root
		for _, part := range split(d) {
			if n.entries[part] == nil {
				n.entries[part] = newDir()
				n.synced[part] = n.entries[part]
			}
			n = n.entries[part]
		}
	}
	return m
}

func split(p string) []string {
	p = strings.Trim(filepath.Clean(p), "/")
	if p == "" {
		return nil
	}
	return strings.Split(p, "/")
}

// crash is a state a crash may leave the disk in; the crash model allows
// all three.
type crash int

const (
	completed   crash = iota // everything completed so far
	durableOnly              // only what was synced
	mixed                    // directory entries as completed, file bytes as synced
)

var crashes = []crash{completed, durableOnly, mixed}

func (c crash) String() string { return [...]string{"completed", "durable-only", "mixed"}[c] }

// image returns the disk a crash in state c leaves now. The copy holds its
// state durably and has no hook. A hook may call it (m.mu is held then);
// anyone else must keep the filesystem idle meanwhile.
func (m *memFS) image(c crash) *memFS {
	return &memFS{root: clone(m.root, c)}
}

func clone(n *node, c crash) *node {
	if !n.dir {
		b := n.durable
		if c == completed {
			b = n.data
		}
		b = append([]byte(nil), b...)
		return &node{data: b, durable: b}
	}
	from := n.entries
	if c == durableOnly {
		from = n.synced
	}
	d := newDir()
	for name, child := range from {
		d.entries[name] = clone(child, c)
		d.synced[name] = d.entries[name]
	}
	return d
}

// mutate runs the hook for one operation; the caller holds m.mu.
func (m *memFS) mutate(kind, path string) error {
	m.ops++
	if m.hook == nil {
		return nil
	}
	return m.hook(op{kind: kind, path: path, k: m.ops})
}

func notExist(opName, path string) error {
	return &fs.PathError{Op: opName, Path: path, Err: fs.ErrNotExist}
}

// lookup resolves path through live entries.
func (m *memFS) lookup(path string) *node {
	n := m.root
	for _, part := range split(path) {
		if !n.dir || n.entries[part] == nil {
			return nil
		}
		n = n.entries[part]
	}
	return n
}

// parent resolves path's directory and returns it with the last element.
func (m *memFS) parent(path string) (*node, string) {
	parts := split(path)
	if len(parts) == 0 {
		return nil, ""
	}
	dir := m.lookup("/" + strings.Join(parts[:len(parts)-1], "/"))
	if dir == nil || !dir.dir {
		return nil, ""
	}
	return dir, parts[len(parts)-1]
}

func (m *memFS) OpenFile(name string, flag int, _ os.FileMode) (wal.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	switch {
	case n == nil && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case n == nil:
		dir, base := m.parent(name)
		if dir == nil {
			return nil, notExist("open", name)
		}
		if err := m.mutate("create", name); err != nil {
			return nil, err
		}
		n = &node{}
		dir.entries[base] = n
	case n.dir:
		return nil, &fs.PathError{Op: "open", Path: name, Err: syscall.EISDIR}
	case flag&os.O_TRUNC != 0 && len(n.data) > 0:
		if err := m.mutate("truncate", name); err != nil {
			return nil, err
		}
		n.data = nil
	}
	return &memFile{m: m, n: n, name: name}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	from, oldBase := m.parent(oldpath)
	to, newBase := m.parent(newpath)
	if from == nil || from.entries[oldBase] == nil || to == nil {
		return notExist("rename", oldpath)
	}
	if dst := to.entries[newBase]; dst != nil && dst.dir && len(dst.entries) > 0 {
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.ENOTEMPTY}
	}
	if err := m.mutate("rename", newpath); err != nil {
		return err
	}
	to.entries[newBase] = from.entries[oldBase]
	delete(from.entries, oldBase)
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base := m.parent(name)
	if dir == nil || dir.entries[base] == nil {
		return notExist("remove", name)
	}
	if n := dir.entries[base]; n.dir && len(n.entries) > 0 {
		return &fs.PathError{Op: "remove", Path: name, Err: syscall.ENOTEMPTY}
	}
	if err := m.mutate("remove", name); err != nil {
		return err
	}
	delete(dir.entries, base)
	return nil
}

// RemoveAll unlinks the whole tree at once: one operation, durable once
// the parent is synced.
func (m *memFS) RemoveAll(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	dir, base := m.parent(name)
	if dir == nil || dir.entries[base] == nil {
		return nil
	}
	if err := m.mutate("remove", name); err != nil {
		return err
	}
	delete(dir.entries, base)
	return nil
}

func (m *memFS) MkdirAll(name string, _ os.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.root
	for i, part := range split(name) {
		child := n.entries[part]
		if child == nil {
			if err := m.mutate("mkdir", "/"+strings.Join(split(name)[:i+1], "/")); err != nil {
				return err
			}
			child = newDir()
			n.entries[part] = child
		}
		if !child.dir {
			return &fs.PathError{Op: "mkdir", Path: name, Err: syscall.ENOTDIR}
		}
		n = child
	}
	return nil
}

func (m *memFS) ReadDir(name string) ([]os.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	if n == nil || !n.dir {
		return nil, notExist("readdir", name)
	}
	out := make([]os.DirEntry, 0, len(n.entries))
	for child, c := range n.entries {
		out = append(out, dirEntry{child, c.dir, int64(len(c.data))})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out, nil
}

func (m *memFS) SyncDir(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.lookup(name)
	if n == nil || !n.dir {
		return notExist("sync", name)
	}
	if err := m.mutate("syncdir", name); err != nil {
		return err
	}
	n.synced = make(map[string]*node, len(n.entries))
	for k, v := range n.entries {
		n.synced[k] = v
	}
	return nil
}

// dirEntry is also its own fs.FileInfo.
type dirEntry struct {
	name string
	dir  bool
	size int64
}

func (e dirEntry) Name() string { return e.name }
func (e dirEntry) IsDir() bool  { return e.dir }
func (e dirEntry) Type() fs.FileMode {
	if e.dir {
		return fs.ModeDir
	}
	return 0
}
func (e dirEntry) Info() (fs.FileInfo, error) { return e, nil }
func (e dirEntry) Size() int64                { return e.size }
func (e dirEntry) Mode() fs.FileMode          { return e.Type() }
func (e dirEntry) ModTime() time.Time         { return time.Time{} }
func (e dirEntry) Sys() any                   { return nil }

// memFile is an open file: it keeps its node across renames and removes,
// as a descriptor does.
type memFile struct {
	m    *memFS
	n    *node
	name string
	off  int64
}

func (f *memFile) Read(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if f.off >= int64(len(f.n.data)) {
		return 0, io.EOF
	}
	k := copy(p, f.n.data[f.off:])
	f.off += int64(k)
	return k, nil
}

// shortWrite, returned by a hook for a write, lets half the bytes land
// before the write fails with err.
type shortWrite struct{ err error }

func (s shortWrite) Error() string { return "short write: " + s.err.Error() }
func (s shortWrite) Unwrap() error { return s.err }

func (f *memFile) Write(p []byte) (int, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.m.mutate("write", f.name); err != nil {
		var sw shortWrite
		if !errors.As(err, &sw) {
			return 0, err
		}
		p = p[:len(p)/2]
		f.writeAt(p)
		return len(p), sw.err
	}
	f.writeAt(p)
	return len(p), nil
}

func (f *memFile) writeAt(p []byte) {
	if end := f.off + int64(len(p)); end > int64(len(f.n.data)) {
		f.n.data = append(f.n.data, make([]byte, end-int64(len(f.n.data)))...)
	}
	copy(f.n.data[f.off:], p)
	f.off += int64(len(p))
}

func (f *memFile) Seek(offset int64, whence int) (int64, error) {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	switch whence {
	case io.SeekCurrent:
		offset += f.off
	case io.SeekEnd:
		offset += int64(len(f.n.data))
	}
	f.off = offset
	return offset, nil
}

func (f *memFile) Truncate(size int64) error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.m.mutate("truncate", f.name); err != nil {
		return err
	}
	if size < int64(len(f.n.data)) {
		f.n.data = f.n.data[:size:size]
	} else {
		f.n.data = append(f.n.data, make([]byte, size-int64(len(f.n.data)))...)
	}
	return nil
}

func (f *memFile) Sync() error {
	f.m.mu.Lock()
	defer f.m.mu.Unlock()
	if err := f.m.mutate("sync", f.name); err != nil {
		return err
	}
	f.n.durable = append([]byte(nil), f.n.data...)
	return nil
}

func (f *memFile) Close() error { return nil }
