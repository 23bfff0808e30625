// Package iofault is the filesystem seam of the durability layers
// (DESIGN.md §15): every file operation the crash-safety journal, the
// partitiond state directory, and the hardened framed archives perform goes
// through the FS interface, so the same code path runs against the real
// filesystem (OSFS, a zero-cost passthrough) or against a deterministic
// fault injector (ChaosFS). ChaosFS mirrors internal/faults for the
// simulation layer: every fault decision is drawn from SplitMix64 streams
// derived from a single seed — same seed, same faults — and never from the
// wall clock, so an injected-fault run is exactly as reproducible as a
// clean one.
//
// The package also defines the crash-point model the chaos harness
// enumerates: ChaosFS counts every durability point (file write, fsync,
// rename, directory sync) and can simulate a power failure at any counted
// point, leaving the on-disk state a real crash would leave — a torn final
// write, a skipped rename, or (in the power-off model) only the bytes that
// were fsynced. See chaos.go.
package iofault

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// ErrInjected is the sentinel every injected fault wraps. Injected faults
// model transient media errors (a full disk, a flaky controller): the
// operation failed, but the filesystem is still alive and a retry may
// succeed. Crash simulation does NOT wrap ErrInjected — a crashed
// filesystem is gone until restart.
var ErrInjected = errors.New("iofault: injected fault")

// ErrCrash marks every operation at or after a simulated crash point: the
// process is still running, but its filesystem behaves as if the machine
// lost power — nothing works until the harness "reboots" onto a fresh FS.
var ErrCrash = errors.New("iofault: simulated crash")

// IsTransient reports whether err is an injected transient I/O fault — the
// class the service re-admits with capped backoff instead of failing the
// job. A simulated crash is never transient.
func IsTransient(err error) bool {
	return errors.Is(err, ErrInjected) && !errors.Is(err, ErrCrash)
}

// File is the writable handle the durability layers use. *os.File satisfies
// it directly.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Truncate changes the file's size — the resume path's corrupt-tail drop.
	Truncate(size int64) error
	// Seek positions the next read/write.
	Seek(offset int64, whence int) (int64, error)
}

// FS is the filesystem seam. Implementations must be safe for concurrent
// use (the daemon's pool workers persist results concurrently).
type FS interface {
	// OpenFile opens path with os.OpenFile semantics.
	OpenFile(path string, flag int, perm os.FileMode) (File, error)
	// Open opens path read-only.
	Open(path string) (File, error)
	// ReadFile reads the whole file.
	ReadFile(path string) ([]byte, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes path.
	Remove(path string) error
	// ReadDir lists a directory, sorted by filename.
	ReadDir(path string) ([]fs.DirEntry, error)
	// Stat describes path.
	Stat(path string) (fs.FileInfo, error)
	// MkdirAll creates path and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir fsyncs the directory itself, making preceding renames and
	// creates in it durable against power loss.
	SyncDir(path string) error
}

// OSFS is the passthrough implementation over the real filesystem — the
// production path. The zero value is ready to use; OS is the shared
// instance the layers default to when handed a nil FS.
type OSFS struct{}

// OS is the shared passthrough instance.
var OS FS = OSFS{}

// OrOS returns fsys, or the shared OSFS passthrough when fsys is nil — the
// defaulting rule every seam entry point applies.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS
	}
	return fsys
}

func (OSFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

func (OSFS) Open(path string) (File, error) { return os.Open(path) }

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

func (OSFS) Stat(path string) (fs.FileInfo, error) { return os.Stat(path) }

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

// SyncDir opens the directory and fsyncs it. On filesystems whose directory
// handles reject fsync the error is surfaced; callers that only need
// process-crash safety may ignore it, power-off safety may not.
func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// DirOf returns the parent directory of path — the directory a caller must
// SyncDir after renaming path into place.
func DirOf(path string) string { return filepath.Dir(path) }
