package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzUnmarshal feeds arbitrary bytes to the snapshot decoder, both as a
// whole file and as a payload wrapped in a valid frame (so mutations reach
// the JSON decoder instead of dying at the CRC check).  The decoder must
// never panic, and every accepted snapshot must re-marshal to bytes that
// decode to the same snapshot.  JSON cannot carry NaN, so decoded
// snapshots compare with DeepEqual.  Allocation stays proportional to the
// input: the frame rejects payloads over maxPayload, and JSON has no
// length prefixes to trust.
func FuzzUnmarshal(f *testing.F) {
	data := frame(f, sampleSnapshot())
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
			again := frame(t, s)
			s2, err := Unmarshal(again)
			if err != nil {
				t.Fatalf("re-marshaled snapshot does not decode: %v", err)
			}
			if !bytes.Equal(again, frame(t, s2)) {
				t.Fatal("re-marshaled snapshot is not a fixpoint")
			}
			if !reflect.DeepEqual(s, s2) {
				t.Fatalf("re-marshaled snapshot decodes differently:\n got %+v\nwant %+v", s2, s)
			}
		}
	})
}
