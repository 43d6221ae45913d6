package checkpoint

import (
	"os"
	"path/filepath"
	"testing"
)

func TestScanDir(t *testing.T) {
	dir := t.TempDir()

	// Two valid snapshots, saved out of lexical order.
	for _, name := range []string{"job-b.ckpt", "job-a.ckpt"} {
		if err := Save(nil, filepath.Join(dir, name), sampleSnapshot()); err != nil {
			t.Fatal(err)
		}
	}
	// A corrupt snapshot: listed, with Err set.
	if err := os.WriteFile(filepath.Join(dir, "job-c.ckpt"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Noise that must be ignored: non-snapshot state files, a leftover
	// atomic-write temp, and a subdirectory.
	for _, name := range []string{"job-a.json", "job-d.ckpt.tmp12345"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "artifacts.ckpt"), 0o755); err != nil {
		t.Fatal(err)
	}

	entries, err := ScanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries, want 3: %+v", len(entries), entries)
	}
	for i, want := range []string{"job-a.ckpt", "job-b.ckpt", "job-c.ckpt"} {
		if got := filepath.Base(entries[i].Path); got != want {
			t.Errorf("entry %d: path %q, want %q", i, got, want)
		}
	}
	for i, e := range entries[:2] {
		if e.Err != nil {
			t.Errorf("entry %d: valid snapshot reported unreadable: %v", i, e.Err)
		}
	}
	if entries[2].Err == nil {
		t.Error("job-c: want load error for torn file")
	}
}

func TestScanDirMissing(t *testing.T) {
	entries, err := ScanDir(filepath.Join(t.TempDir(), "never-created"))
	if err != nil {
		t.Fatalf("missing dir should scan as empty, got %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("got %d entries from missing dir", len(entries))
	}
}
