// Package vfs is the filesystem seam under every durability artifact in
// the system — the write-ahead logs (internal/wal) perform all their I/O
// through an FS value instead of the os package. Production code passes OS, the thin
// passthrough; tests pass a Mem (an in-memory filesystem that models
// what actually survives a crash: fsync'd file content and
// directory-fsync'd namespace entries, nothing else) and wrap either in
// a Fault injector that fails, shortens, or corrupts individual
// syscalls on a deterministic schedule.
//
// The seam exists because "crash-safe" is not a property a disk that
// works can ever test: proving that a store survives ENOSPC, a failed
// fsync, a torn write, or a crash between any two syscalls requires
// injecting exactly those outcomes at exactly those boundaries, and
// re-opening the store on what a real kernel would have left behind.
package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the slice of *os.File the durability layer uses.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	// Sync flushes the file's content to stable storage (fsync).
	Sync() error
	Truncate(size int64) error
	Name() string
}

// FS is the filesystem seam. Implementations: OS (the real kernel), Mem
// (in-memory with crash semantics), Fault (deterministic fault wrapper
// around either).
type FS interface {
	// OpenFile is os.OpenFile.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open is os.Open (read-only).
	Open(name string) (File, error)
	// MkdirAll is os.MkdirAll.
	MkdirAll(path string, perm os.FileMode) error
	// Rename is os.Rename.
	Rename(oldpath, newpath string) error
	// Remove is os.Remove.
	Remove(name string) error
	// Stat is os.Stat.
	Stat(name string) (fs.FileInfo, error)
	// ReadDir is os.ReadDir.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory, making its entries (creations,
	// renames, removals) durable. The atomic-rename idiom is not atomic
	// against power loss without it.
	SyncDir(dir string) error
}

// OS is the passthrough FS backed by the real kernel.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close() // the sync failure is the story; closing is cleanup
		return err
	}
	return d.Close()
}

// ReadFile reads the whole file at path through fsys.
func ReadFile(fsys FS, path string) ([]byte, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	return data, nil
}

// RemoveAll is os.RemoveAll through fsys: it removes path and everything
// below it, children first, with one Remove per entry, so a Fault can
// fail any one removal. A path that does not exist is no error. It stops
// at the first failure.
func RemoveAll(fsys FS, path string) error {
	fi, err := fsys.Stat(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if fi.IsDir() {
		ents, err := fsys.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if err := RemoveAll(fsys, filepath.Join(path, e.Name())); err != nil {
				return err
			}
		}
	}
	if err := fsys.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	return nil
}

// WriteFileAtomic writes data to path through fsys with the full
// crash-safe discipline: temp file in the same directory, write, fsync,
// close, rename over path, fsync the directory. On any error the temp
// file is removed and the previous content of path is untouched. This
// is the one canonical implementation of the atomic-replace idiom; a
// WAL tail repair saves the bytes it cuts with it.
func WriteFileAtomic(fsys FS, path string, data []byte, perm os.FileMode) (err error) {
	dir := filepath.Dir(path)
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			_ = fsys.Remove(tmp) // leave no litter behind a failed write
		}
	}()
	if _, err = f.Write(data); err != nil {
		_ = f.Close()
		return err
	}
	if err = f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	if err = fsys.Rename(tmp, path); err != nil {
		return err
	}
	// The rename is not durable until the directory entry is: a crash
	// before this fsync may resurrect the old file.
	return fsys.SyncDir(dir)
}
