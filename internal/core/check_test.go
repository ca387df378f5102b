package core

import (
	"testing"

	"mmfs/internal/strand"
)

// checkClean asserts a freshly exercised file system passes fsck.
func checkClean(t *testing.T, fs *FS) {
	t.Helper()
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	if problems := fs.Check(); len(problems) != 0 {
		t.Fatalf("fsck found %d problem(s): %v", len(problems), problems)
	}
}

// wantProblem asserts fsck reports a problem of the kind.
func wantProblem(t *testing.T, fs *FS, kind string) {
	t.Helper()
	problems := fs.Check()
	for _, p := range problems {
		if p.Kind == kind {
			return
		}
	}
	t.Fatalf("fsck found no %s problem: %v", kind, problems)
}

func TestCheckDetectsLeak(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Allocate sectors no structure owns.
	if _, err := fs.Allocator().Allocate(8); err != nil {
		t.Fatal(err)
	}
	wantProblem(t, fs, "leak")
}

func TestCheckDetectsDanglingRef(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 2, 6300)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a reference.
	r.Intervals[0].Video.Strand = strand.ID(4242)
	wantProblem(t, fs, "dangling-ref")
}

func TestCheckDetectsUnallocatedUse(t *testing.T) {
	fs, err := Format(Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := recordClip(t, fs, "venkat", 2, 6400)
	if err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	// Free a media run behind the file system's back.
	fs.Allocator().Free(fs.Strands().MustGet(r.Intervals[0].Video.Strand).MediaRuns()[0])
	wantProblem(t, fs, "unallocated")
}
