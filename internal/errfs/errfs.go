// Package errfs is a failpoint filesystem: an injectable interface over
// the handful of file operations the journal performs (open, write,
// fsync, rename, ...) plus an Injector that makes the Nth matching
// operation fail with a chosen error — EIO, ENOSPC, a failed fsync, or a
// torn write that persists only a prefix of the bytes before erroring.
//
// The real filesystem always sits underneath: an Injector wraps OS (or
// another FS) and passes every operation through untouched until a fault
// fires, so the bytes on disk are exactly what a real sick disk would
// have left behind. That makes the package the chaos substrate for
// internal/journal's degradation contract: tests (and meshd's -fail
// flag) schedule a failure, drive real commits, and then assert that
// recovery reads the surviving real bytes back byte-identically.
//
// Fault specs have a flag-friendly string form (ParseSpec):
//
//	op[:path=substr][:nth=N][:err=eio|enospc][:torn][:sticky]
//
// e.g. "sync:path=wal.log:nth=12:err=eio" fails the 12th fsync of any
// file whose path contains "wal.log".
package errfs

import (
	"fmt"
	"io/fs"
	"os"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// FS is the filesystem surface the journal needs. Implementations must
// be safe for concurrent use.
type FS interface {
	Mkdir(name string, perm fs.FileMode) error
	// OpenFile opens name for writing/appending per flag.
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// Open opens name read-only (the journal uses it to fsync
	// directories after a rename).
	Open(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	Rename(oldpath, newpath string) error
}

// File is the per-handle surface: the subset of *os.File the journal
// touches.
type File interface {
	Write(p []byte) (n int, err error)
	Sync() error
	Close() error
	Truncate(size int64) error
	Seek(offset int64, whence int) (int64, error)
}

// OS is the passthrough real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) Mkdir(name string, perm fs.FileMode) error { return os.Mkdir(name, perm) }
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}
func (osFS) Open(name string) (File, error)       { return os.Open(name) }
func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Op identifies an injectable operation class.
type Op string

const (
	OpMkdir    Op = "mkdir"
	OpOpen     Op = "open" // OpenFile and Open both count
	OpRead     Op = "read" // ReadFile
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpRename   Op = "rename"
	OpTruncate Op = "truncate"
)

// The canonical injected errors. Real errno values, so code matching on
// syscall.EIO / syscall.ENOSPC (or os.IsPermission-style helpers) sees
// exactly what a sick disk would produce.
var (
	ErrInjectedIO    = fmt.Errorf("errfs: injected: %w", syscall.EIO)
	ErrInjectedNoSpc = fmt.Errorf("errfs: injected: %w", syscall.ENOSPC)
)

// Fault schedules one failure on an Injector.
type Fault struct {
	// Op selects the operation class to fail.
	Op Op
	// Path, when non-empty, restricts the fault to operations whose path
	// contains it (base names like "wal.log" or "checkpoint.db.tmp" are
	// the usual filters).
	Path string
	// Nth fires the fault on the Nth matching operation, 1-based
	// (<= 1 means the first).
	Nth int
	// Err is the injected error (nil means ErrInjectedIO).
	Err error
	// Torn, for write faults, persists the first half of the buffer
	// before failing — the torn-write crash signature.
	Torn bool
	// Sticky keeps every later matching operation failing too (a dead
	// disk); the default one-shot fails only the Nth.
	Sticky bool
}

// String renders f in the ParseSpec form, so a logged fault can be
// re-armed verbatim. The two canonical errors print as eio and enospc;
// any other error prints its text, which ParseSpec rejects.
func (f Fault) String() string {
	s := fmt.Sprintf("%s:nth=%d", f.Op, max(f.Nth, 1))
	if f.Path != "" {
		s += ":path=" + f.Path
	}
	if f.Torn {
		s += ":torn"
	}
	if f.Sticky {
		s += ":sticky"
	}
	switch f.Err {
	case nil, ErrInjectedIO:
		return s + ":err=eio"
	case ErrInjectedNoSpc:
		return s + ":err=enospc"
	}
	return fmt.Sprintf("%s:err=%v", s, f.Err)
}

// ParseSpec parses the flag form of a fault:
//
//	op[:path=substr][:nth=N][:err=eio|enospc][:torn][:sticky]
//
// where op is one of mkdir, open, read, write, sync, rename, truncate.
func ParseSpec(spec string) (Fault, error) {
	parts := strings.Split(spec, ":")
	f := Fault{Op: Op(parts[0]), Nth: 1, Err: ErrInjectedIO}
	switch f.Op {
	case OpMkdir, OpOpen, OpRead, OpWrite, OpSync, OpRename, OpTruncate:
	default:
		return Fault{}, fmt.Errorf("errfs: spec %q: unknown op %q", spec, parts[0])
	}
	for _, part := range parts[1:] {
		key, val, _ := strings.Cut(part, "=")
		switch key {
		case "path":
			f.Path = val
		case "nth":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Fault{}, fmt.Errorf("errfs: spec %q: nth wants a positive integer, got %q", spec, val)
			}
			f.Nth = n
		case "err":
			switch val {
			case "eio":
				f.Err = ErrInjectedIO
			case "enospc":
				f.Err = ErrInjectedNoSpc
			default:
				return Fault{}, fmt.Errorf("errfs: spec %q: err wants eio or enospc, got %q", spec, val)
			}
		case "torn":
			f.Torn = true
		case "sticky":
			f.Sticky = true
		default:
			return Fault{}, fmt.Errorf("errfs: spec %q: unknown key %q", spec, key)
		}
	}
	return f, nil
}

// armed is one scheduled fault with its match counter.
type armed struct {
	Fault
	seen  int
	fired bool
}

// Injector is an FS that injects armed faults into a wrapped FS. Safe
// for concurrent use. Faults are matched in arming order; the first
// armed fault that decides to fire wins the operation.
type Injector struct {
	fs FS

	mu sync.Mutex
	//meshlint:guardedby mu
	faults []*armed
	//meshlint:guardedby mu
	fired int
}

// New wraps fs (nil means OS) in an empty Injector; schedule failures
// with Arm.
func New(fsys FS) *Injector {
	if fsys == nil {
		fsys = OS
	}
	return &Injector{fs: fsys}
}

// Arm schedules one fault. Safe to call while the Injector is in use —
// this is how chaos drivers schedule a failure mid-run.
func (i *Injector) Arm(f Fault) {
	if f.Err == nil {
		f.Err = ErrInjectedIO
	}
	if f.Nth < 1 {
		f.Nth = 1
	}
	i.mu.Lock()
	i.faults = append(i.faults, &armed{Fault: f})
	i.mu.Unlock()
}

// Fired reports how many operations have been failed so far.
func (i *Injector) Fired() int {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired
}

// check decides whether op on path fails now, returning the injected
// error (and whether the failing write should be torn).
func (i *Injector) check(op Op, path string) (error, bool) {
	i.mu.Lock()
	defer i.mu.Unlock()
	for _, a := range i.faults {
		if a.Op != op || (a.Path != "" && !strings.Contains(path, a.Path)) {
			continue
		}
		a.seen++
		fire := a.seen == a.Nth || (a.Sticky && a.seen > a.Nth)
		if !fire {
			continue
		}
		a.fired = true
		i.fired++
		return a.Err, a.Torn
	}
	return nil, false
}

func (i *Injector) Mkdir(name string, perm fs.FileMode) error {
	if err, _ := i.check(OpMkdir, name); err != nil {
		return &fs.PathError{Op: "mkdir", Path: name, Err: err}
	}
	return i.fs.Mkdir(name, perm)
}

func (i *Injector) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err, _ := i.check(OpOpen, name); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := i.fs.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &file{inj: i, name: name, f: f}, nil
}

func (i *Injector) Open(name string) (File, error) {
	if err, _ := i.check(OpOpen, name); err != nil {
		return nil, &fs.PathError{Op: "open", Path: name, Err: err}
	}
	f, err := i.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{inj: i, name: name, f: f}, nil
}

func (i *Injector) ReadFile(name string) ([]byte, error) {
	if err, _ := i.check(OpRead, name); err != nil {
		return nil, &fs.PathError{Op: "read", Path: name, Err: err}
	}
	return i.fs.ReadFile(name)
}

func (i *Injector) Rename(oldpath, newpath string) error {
	if err, _ := i.check(OpRename, newpath); err != nil {
		return &fs.PathError{Op: "rename", Path: newpath, Err: err}
	}
	return i.fs.Rename(oldpath, newpath)
}

// file threads per-handle operations back through the Injector.
type file struct {
	inj  *Injector
	name string
	f    File
}

func (w *file) Write(p []byte) (int, error) {
	if err, torn := w.inj.check(OpWrite, w.name); err != nil {
		n := 0
		if torn && len(p) > 0 {
			// Persist a prefix through the real file, then fail: the torn
			// frame is really on disk for recovery to find.
			n, _ = w.f.Write(p[:len(p)/2])
		}
		return n, &fs.PathError{Op: "write", Path: w.name, Err: err}
	}
	return w.f.Write(p)
}

func (w *file) Sync() error {
	if err, _ := w.inj.check(OpSync, w.name); err != nil {
		return &fs.PathError{Op: "sync", Path: w.name, Err: err}
	}
	return w.f.Sync()
}

func (w *file) Truncate(size int64) error {
	if err, _ := w.inj.check(OpTruncate, w.name); err != nil {
		return &fs.PathError{Op: "truncate", Path: w.name, Err: err}
	}
	return w.f.Truncate(size)
}

func (w *file) Seek(offset int64, whence int) (int64, error) {
	return w.f.Seek(offset, whence)
}

func (w *file) Close() error { return w.f.Close() }
