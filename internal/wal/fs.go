package wal

import (
	"io"
	"os"
)

// File is what the log, the ledger and the session store do with an open
// file. *os.File implements it.
type File interface {
	io.ReadWriteSeeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the one filesystem seam: every file the log, the ledger and the
// session store (internal/store) touch is reached through it. OS is the
// production FS; a test puts a fault-injecting one under the same code.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(name string) error
	MkdirAll(name string, perm os.FileMode) error
	ReadDir(name string) ([]os.DirEntry, error)
	SyncDir(name string) error // makes the creates, renames and removes in name durable
}

// OS is the operating system's filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err // not a nil *os.File in a non-nil File
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) RemoveAll(name string) error                  { return os.RemoveAll(name) }
func (osFS) MkdirAll(name string, perm os.FileMode) error { return os.MkdirAll(name, perm) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }

func (osFS) SyncDir(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	err = f.Sync()
	f.Close()
	return err
}
