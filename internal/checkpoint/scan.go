package checkpoint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Ext is the conventional snapshot file suffix ScanDir looks for.  Save
// does not enforce it, but serving layers that enumerate a state directory
// after a restart rely on it to tell snapshots from other state files.
const Ext = ".ckpt"

// Entry is one snapshot file found by ScanDir.  Err is non-nil when the
// file could not be loaded and says why (a torn final write, a snapshot
// from an old format version, a permissions problem); callers decide
// whether an unreadable snapshot is fatal or just means the associated job
// restarts from scratch.
type Entry struct {
	Path string
	Err  error
}

// ScanDir enumerates the snapshot files directly under dir, loading each
// one to validate it.  Files without the Ext suffix are ignored, as are the
// temporary files Save creates (Ext + ".tmp..." from CreateTemp patterns) —
// a crash between serialize and rename must not surface the half-written
// temp as a candidate snapshot.  Entries come back sorted by path so
// restart-time adoption is deterministic.  A missing dir is not an error: a
// daemon's first boot has no state directory yet, which is the same as
// having no snapshots.
func ScanDir(dir string) ([]Entry, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var entries []Entry
	for _, de := range des {
		if de.IsDir() {
			continue
		}
		name := de.Name()
		if !strings.HasSuffix(name, Ext) || strings.Contains(name, Ext+".tmp") {
			continue
		}
		path := filepath.Join(dir, name)
		_, err := Load(OS, path)
		entries = append(entries, Entry{Path: path, Err: err})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Path < entries[j].Path })
	return entries, nil
}
