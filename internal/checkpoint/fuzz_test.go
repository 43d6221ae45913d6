package checkpoint

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the snapshot decoder, both as a
// whole file and as a payload wrapped in a valid frame (so mutations reach
// the payload decoder instead of dying at the CRC check).  The decoder must
// never panic, and every accepted snapshot must re-marshal to bytes that
// decode to the same snapshot.  Allocation stays proportional to the input:
// the frame rejects payloads over maxCount and every count is checked
// against the bytes that remain.
func FuzzUnmarshal(f *testing.F) {
	data := sampleSnapshot().marshal()
	f.Add(data)
	for _, n := range []int{0, len(magic), len(magic) + 12, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	payload := data[len(magic)+12 : len(data)-4]
	f.Add(payload)
	f.Add(payload[:len(payload)/2])
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, reframe(b, Version)} {
			s, err := Unmarshal(in)
			if err != nil {
				continue
			}
			again := s.marshal()
			s2, err := Unmarshal(again)
			if err != nil {
				t.Fatalf("re-marshaled snapshot does not decode: %v", err)
			}
			if !bytes.Equal(again, s2.marshal()) {
				t.Fatal("re-marshaled snapshot is not a fixpoint")
			}
			// NaN never compares equal; the byte fixpoint above covers it.
			if !hasNaN(s) && !reflect.DeepEqual(s, s2) {
				t.Fatalf("re-marshaled snapshot decodes differently:\n got %+v\nwant %+v", s2, s)
			}
		}
	})
}

func hasNaN(s *Snapshot) bool {
	inc := s.Incumbent
	return inc != nil && (math.IsNaN(inc.Leak) || math.IsNaN(inc.Isub) || math.IsNaN(inc.Delay))
}
