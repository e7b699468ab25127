package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomicCrashPoints explores every crash point of a rewrite
// through WriteFileAtomic, with a stale temp file from an earlier crashed
// writer lying next to the target. At every op × mode the target holds
// the old or the new version, and the new one from the rename on. A
// rewrite that completes leaves no temp file behind, the orphan included.
func TestWriteFileAtomicCrashPoints(t *testing.T) {
	var dir string
	run := func(fsys FS) error {
		dir = t.TempDir()
		path := filepath.Join(dir, "out")
		if err := WriteFileAtomic(OS, path, []byte("old-version")); err != nil {
			return err
		}
		if err := os.WriteFile(path+".tmp-orphan", []byte("orphan"), 0o644); err != nil {
			return err
		}
		return WriteFileAtomic(fsys, path, []byte("new-version"))
	}
	// Ops of the explored rewrite: 0 CreateTemp, 1 Write, 2 Sync,
	// 3 Close, 4 Rename, 5 SyncDir, 6 Glob, 7 Remove (the orphan).
	const renameAt = 4
	verify := func(cp CrashPoint, runErr error) error {
		b, err := os.ReadFile(filepath.Join(dir, "out"))
		if err != nil {
			return fmt.Errorf("final file unreadable: %w", err)
		}
		s := string(b)
		if s != "old-version" && s != "new-version" {
			return fmt.Errorf("final file torn: %q", s)
		}
		renamed := cp.At > renameAt || cp.At == renameAt && cp.Mode == CrashAfter
		if renamed && s != "new-version" {
			return fmt.Errorf("rename committed but file holds %q", s)
		}
		return nil
	}
	n, err := ExploreCrashPoints(nil, nil, run, verify)
	if err != nil {
		t.Fatal(err)
	}
	if n != 8*3 {
		t.Errorf("explored %d crash points, want 24 (8 ops x 3 modes)", n)
	}

	if err := run(OS); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(filepath.Join(dir, "out")); err != nil || string(b) != "new-version" {
		t.Fatalf("after a clean rewrite the file holds %q (%v), want new-version", b, err)
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp*")); len(tmps) != 0 {
		t.Errorf("temp files left after a clean rewrite: %v", tmps)
	}
}
