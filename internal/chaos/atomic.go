package chaos

import (
	"fmt"
	"path/filepath"
)

// WriteFileAtomic replaces path with data through fsys (nil means OS):
// temp file in the destination directory → Write → Sync → Close → Rename
// over path → SyncDir, then reclaim stale temp files a crashed earlier
// writer orphaned next to path. A crash at any instant leaves either the
// previous file or the new one under path, never a torn mix. On error it
// removes its own temp file. Errors carry no package prefix, so each
// caller wraps them with its own.
func WriteFileAtomic(fsys FS, path string, data []byte) error {
	if fsys == nil {
		fsys = OS
	}
	dir := filepath.Dir(path)
	pattern := filepath.Base(path) + ".tmp*"
	f, err := fsys.CreateTemp(dir, pattern)
	if err != nil {
		return fmt.Errorf("temp file for %s: %w", path, err)
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		// The fsync before rename is load-bearing: without it a power
		// loss can commit the rename while the data blocks are still
		// unwritten, leaving a truncated file under the final name.
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = fsys.Rename(tmp, path)
	}
	if werr != nil {
		_ = fsys.Remove(tmp)
		return fmt.Errorf("write %s: %w", path, werr)
	}
	// Make the rename durable. Best-effort: some filesystems reject
	// directory fsync, and the write itself already succeeded.
	_ = fsys.SyncDir(dir)
	// Reclaim orphans from crashed writers. Our own temp file was just
	// renamed away, so anything still matching the pattern is stale.
	// Best-effort: a failure here leaves litter, never a bad file.
	if stale, gerr := fsys.Glob(filepath.Join(dir, pattern)); gerr == nil {
		for _, s := range stale {
			_ = fsys.Remove(s)
		}
	}
	return nil
}
