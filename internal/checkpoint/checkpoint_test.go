package checkpoint

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: 0xdeadbeefcafef00d,
		Elapsed:     1234 * time.Millisecond,
		SplitDepth:  5,
		LeavesUsed:  42,
		Stats: Stats{
			StateNodes:    100,
			GateTrials:    2000,
			Leaves:        40,
			Pruned:        17,
			LeafCacheHits: 3,
			BatchSweeps:   9,
			BatchLanes:    300,
			RelaxBounds:   55,
			RelaxPruned:   21,
			PortfolioWins: 2,
		},
		Failures: []WorkerFailure{
			{Worker: 2, Err: "worker panic: boom", Stack: "goroutine 7 [running]:\n..."},
		},
		Incumbent: &Incumbent{
			State:   []bool{true, false, true, true},
			Choices: [][2]int32{{0, 1}, {3, 0}, {2, 2}},
			Leak:    123.456,
			Isub:    78.9,
			Delay:   456.7,
		},
		Frontier: [][]byte{
			{0, 1, 2, 2},
			{1, 1, 2, 2},
		},
	}
}

func snapEqual(a, b *Snapshot) bool {
	return reflect.DeepEqual(a, b)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "search.ckpt")
	want := sampleSnapshot()
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if !snapEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v %+v %+v\nwant %+v %+v %+v",
			got, got.Incumbent, got.Frontier, want, want.Incumbent, want.Frontier)
	}
	// Overwrite in place (the periodic-write path) must also work.
	want.LeavesUsed = 99
	want.Frontier = want.Frontier[:1]
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err = Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.LeavesUsed != 99 || len(got.Frontier) != 1 {
		t.Errorf("overwrite not visible: %+v", got)
	}
}

func TestRoundTripNoIncumbentNoFrontier(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.ckpt")
	want := &Snapshot{Fingerprint: 1, SplitDepth: 0}
	if err := Save(nil, path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Incumbent != nil || len(got.Frontier) != 0 || got.Fingerprint != 1 {
		t.Errorf("got %+v", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	_, err := Load(nil, filepath.Join(t.TempDir(), "nope.ckpt"))
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("want os.ErrNotExist, got %v", err)
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	data := sampleSnapshot().marshal()

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[0] ^= 0xff
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(magic)] = 0xff
		if _, err := Unmarshal(bad); !errors.Is(err, ErrVersion) {
			t.Errorf("want ErrVersion, got %v", err)
		}
		// Versions 2 and 3 are no longer read, even with an intact frame.
		payload := data[len(magic)+12 : len(data)-4]
		for _, v := range []uint32{2, 3} {
			if _, err := Unmarshal(reframe(payload, v)); !errors.Is(err, ErrVersion) {
				t.Errorf("version-%d frame: want ErrVersion, got %v", v, err)
			}
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for _, n := range []int{1, len(magic) + 4, len(data) / 2, len(data) - 1} {
			if _, err := Unmarshal(data[:n]); !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersion) {
				t.Errorf("truncate to %d: want ErrCorrupt, got %v", n, err)
			}
		}
	})
	t.Run("payload bit flip", func(t *testing.T) {
		// Flip every payload byte in turn: the CRC must catch each one.
		start := len(magic) + 12
		for i := start; i < len(data)-4; i++ {
			bad := append([]byte(nil), data...)
			bad[i] ^= 0x01
			if _, err := Unmarshal(bad); err == nil {
				t.Fatalf("bit flip at %d decoded cleanly", i)
			}
		}
	})
	t.Run("trailing garbage", func(t *testing.T) {
		bad := append(append([]byte(nil), data...), 0x00)
		if _, err := Unmarshal(bad); !errors.Is(err, ErrCorrupt) {
			t.Errorf("want ErrCorrupt, got %v", err)
		}
	})
}

// reframe wraps an arbitrary payload in a valid frame (magic, version,
// length, CRC), so tests can exercise payload-level decode validation
// separately from the frame checks.
func reframe(payload []byte, version uint32) []byte {
	out := append([]byte(nil), magic...)
	out = binary.LittleEndian.AppendUint32(out, version)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
}

// The trailing sections (the counters since version 4; the multipliers too
// before that) must be validated like everything before them: a payload cut
// anywhere inside them — even with a recomputed, valid CRC — must fail.
func TestRejectsCorruptMultiplierSection(t *testing.T) {
	full := sampleSnapshot().marshal()
	payload := full[len(magic)+12 : len(full)-4]
	trailing := 8 * (numStats - leadStats)

	t.Run("truncated trailing sections", func(t *testing.T) {
		for cut := len(payload) - trailing; cut < len(payload); cut++ {
			if _, err := Unmarshal(reframe(payload[:cut], Version)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("payload cut to %d of %d: want ErrCorrupt, got %v", cut, len(payload), err)
			}
		}
	})
}

// failFS injects failures into individual filesystem operations.
type failFS struct {
	failCreate bool
	failWrite  bool
	failSync   bool
	failRename bool
}

type failFile struct {
	*os.File
	failWrite bool
	failSync  bool
}

func (f *failFile) Write(p []byte) (int, error) {
	if f.failWrite {
		return 0, errors.New("injected write error")
	}
	return f.File.Write(p)
}

func (f *failFile) Sync() error {
	if f.failSync {
		return errors.New("injected sync error")
	}
	return f.File.Sync()
}

func (fs *failFS) CreateTemp(dir, pattern string) (File, error) {
	if fs.failCreate {
		return nil, errors.New("injected create error")
	}
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &failFile{File: f, failWrite: fs.failWrite, failSync: fs.failSync}, nil
}

func (fs *failFS) Rename(oldpath, newpath string) error {
	if fs.failRename {
		return errors.New("injected rename error")
	}
	return os.Rename(oldpath, newpath)
}

func (fs *failFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (fs *failFS) Remove(name string) error             { return os.Remove(name) }

// A failed write must never clobber the previous snapshot and must not leak
// temp files.
func TestSaveFailuresAreAtomic(t *testing.T) {
	for _, tc := range []struct {
		name string
		fs   *failFS
	}{
		{"create", &failFS{failCreate: true}},
		{"write", &failFS{failWrite: true}},
		{"sync", &failFS{failSync: true}},
		{"rename", &failFS{failRename: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "search.ckpt")
			good := sampleSnapshot()
			if err := Save(nil, path, good); err != nil {
				t.Fatal(err)
			}
			bad := sampleSnapshot()
			bad.LeavesUsed = 7777
			if err := Save(tc.fs, path, bad); err == nil {
				t.Fatal("injected failure did not surface")
			}
			got, err := Load(nil, path)
			if err != nil {
				t.Fatalf("previous snapshot unreadable after failed save: %v", err)
			}
			if got.LeavesUsed != good.LeavesUsed {
				t.Errorf("failed save clobbered the snapshot: LeavesUsed %d", got.LeavesUsed)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Errorf("temp files leaked: %v", entries)
			}
		})
	}
}
