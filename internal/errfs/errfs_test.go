package errfs

import (
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func TestParseSpec(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want Fault
		bad  bool
	}{
		{spec: "sync", want: Fault{Op: OpSync, Nth: 1, Err: ErrInjectedIO}},
		{spec: "sync:path=wal.log:nth=12:err=eio",
			want: Fault{Op: OpSync, Path: "wal.log", Nth: 12, Err: ErrInjectedIO}},
		{spec: "rename:path=checkpoint.db:err=enospc",
			want: Fault{Op: OpRename, Path: "checkpoint.db", Nth: 1, Err: ErrInjectedNoSpc}},
		{spec: "write:nth=3:torn", want: Fault{Op: OpWrite, Nth: 3, Err: ErrInjectedIO, Torn: true}},
		{spec: "write:sticky", want: Fault{Op: OpWrite, Nth: 1, Err: ErrInjectedIO, Sticky: true}},
		{spec: "chmod", bad: true},
		{spec: "sync:nth=0", bad: true},
		{spec: "sync:nth=x", bad: true},
		{spec: "sync:err=eperm", bad: true},
		{spec: "sync:bogus=1", bad: true},
		// The form Fault.String prints (and meshd logs for every armed
		// -fail spec) parses back.
		{spec: Fault{Op: OpSync, Path: "wal.log", Nth: 12, Err: ErrInjectedNoSpc, Sticky: true}.String(),
			want: Fault{Op: OpSync, Path: "wal.log", Nth: 12, Err: ErrInjectedNoSpc, Sticky: true}},
	} {
		got, err := ParseSpec(tc.spec)
		if tc.bad {
			if err == nil {
				t.Errorf("ParseSpec(%q) accepted, want error", tc.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.spec, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
}

// FuzzParseSpec checks that every spec ParseSpec accepts prints, through
// Fault.String, as a spec that parses back to the same fault.
func FuzzParseSpec(f *testing.F) {
	for _, spec := range []string{
		"sync",
		"sync:path=wal.log:nth=12:err=eio",
		"rename:path=checkpoint.db:err=enospc",
		"write:nth=3:torn:sticky",
		"open:path=a=b:nth=2:nth=7",
		"truncate:path=:torn",
		"sync:err=eperm",
		"chmod",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		want, err := ParseSpec(spec)
		if err != nil {
			return
		}
		printed := want.String()
		got, err := ParseSpec(printed)
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v prints as %q, which does not parse: %v", spec, want, printed, err)
		}
		if !errors.Is(got.Err, want.Err) {
			t.Fatalf("ParseSpec(%q) err %v came back from %q as %v", spec, want.Err, printed, got.Err)
		}
		got.Err, want.Err = nil, nil
		if got != want {
			t.Fatalf("ParseSpec(%q) = %+v came back from %q as %+v", spec, want, printed, got)
		}
	})
}

// TestNthAndPathMatching locks the counting contract: only the Nth
// operation matching both op and path filter fails, and one-shot faults
// let the N+1th through.
func TestNthAndPathMatching(t *testing.T) {
	dir := t.TempDir()
	inj := New(nil)
	inj.Arm(Fault{Op: OpSync, Path: "a.log", Nth: 2})

	a, err := inj.OpenFile(filepath.Join(dir, "a.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	b, err := inj.OpenFile(filepath.Join(dir, "b.log"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Sync(); err != nil {
		t.Fatalf("sync of unmatched path failed: %v", err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("1st matching sync failed: %v", err)
	}
	if err := a.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("2nd matching sync = %v, want EIO", err)
	}
	if err := a.Sync(); err != nil {
		t.Fatalf("one-shot fault stayed armed: 3rd sync = %v", err)
	}
	if got := inj.Fired(); got != 1 {
		t.Fatalf("Fired() = %d, want 1", got)
	}
}

// TestStickyFault locks the dead-disk mode: once the Nth op fires, every
// later matching op keeps failing.
func TestStickyFault(t *testing.T) {
	dir := t.TempDir()
	inj := New(nil)
	inj.Arm(Fault{Op: OpWrite, Nth: 2, Err: ErrInjectedNoSpc, Sticky: true})
	f, err := inj.OpenFile(filepath.Join(dir, "w"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("1st write failed: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Write([]byte("more")); !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("sticky write %d = %v, want ENOSPC", i+2, err)
		}
	}
}

// TestTornWrite locks the torn-write contract: the injected failure
// leaves exactly the first half of the buffer on the real disk.
func TestTornWrite(t *testing.T) {
	dir := t.TempDir()
	inj := New(nil)
	inj.Arm(Fault{Op: OpWrite, Nth: 1, Torn: true})
	path := filepath.Join(dir, "torn")
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error = %v, want EIO", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want %d", n, len(payload)/2)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "01234" {
		t.Fatalf("torn write persisted %q, want %q", got, "01234")
	}
}

// TestRenameAndMkdirInjection covers the non-handle operations.
func TestRenameAndMkdirInjection(t *testing.T) {
	dir := t.TempDir()
	inj := New(nil)
	inj.Arm(Fault{Op: OpRename, Path: "checkpoint.db", Err: ErrInjectedNoSpc})
	inj.Arm(Fault{Op: OpMkdir, Nth: 2})

	src := filepath.Join(dir, "checkpoint.db.tmp")
	if err := os.WriteFile(src, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// The rename target path carries the filter match.
	if err := inj.Rename(src, filepath.Join(dir, "checkpoint.db")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("rename = %v, want ENOSPC", err)
	}
	if err := inj.Mkdir(filepath.Join(dir, "d1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := inj.Mkdir(filepath.Join(dir, "d2"), 0o755); !errors.Is(err, syscall.EIO) {
		t.Fatalf("2nd mkdir = %v, want EIO", err)
	}
}

// TestPassthrough proves a faultless Injector is byte-transparent.
func TestPassthrough(t *testing.T) {
	dir := t.TempDir()
	inj := New(nil)
	path := filepath.Join(dir, "f")
	f, err := inj.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Truncate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := inj.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hell" {
		t.Fatalf("read back %q, want %q", got, "hell")
	}
}
