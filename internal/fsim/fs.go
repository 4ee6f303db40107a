package fsim

import (
	"io"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the durability layers need. The fault
// injector wraps it; production code gets *os.File straight through.
type File interface {
	io.Writer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// FS is the filesystem surface the WAL — the service's journal — and the
// dist coordinator journal write through. Production uses OSFS; tests
// and chaos drills swap in a Faulty built from a Plan. Every call maps
// 1:1 onto the os package function of the same name, plus SyncDir — the
// directory fsync that makes renames and unlinks durable.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	Truncate(path string, size int64) error
	SyncDir(dir string) error
	Glob(pattern string) ([]string, error)
}

// osFS is the pass-through FS over the real filesystem.
type osFS struct{}

// OSFS returns the production filesystem: every method is the os package
// call of the same name.
func OSFS() FS { return osFS{} }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]os.DirEntry, error) { return os.ReadDir(path) }
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) Truncate(path string, size int64) error     { return os.Truncate(path, size) }
func (osFS) Glob(pattern string) ([]string, error)      { return filepath.Glob(pattern) }

// SyncDir fsyncs a directory so the renames and unlinks inside it are
// durable. Unlike the old silent helper this surfaces the error: some
// filesystems reject directory fsync, and the caller — not this layer —
// decides whether that is fatal.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}
