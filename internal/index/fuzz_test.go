package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// FuzzIndexUnmarshal throws arbitrary bytes at the index decoder.
// Unmarshal must never panic, an index it accepts must re-marshal to the
// same bytes, and searching an accepted index must not panic either: a
// model file is untrusted input to the daemon's -model flag.
func FuzzIndexUnmarshal(f *testing.F) {
	for _, n := range []int{0, 1, 40} {
		ix, err := New(4, Config{M: 2, EfConstruction: 8, EfSearch: 4, Seed: 3})
		if err != nil {
			f.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < n; i++ {
			if err := ix.Add(i%5, randomUnit(rng, 4)); err != nil {
				f.Fatal(err)
			}
		}
		b, err := ix.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		if n > 0 {
			f.Add(b[:len(b)-3])
			huge := append([]byte(nil), b[:headerLen]...)
			binary.LittleEndian.PutUint32(huge[headerLen-20:], 1<<30)
			f.Add(huge)
		}
	}
	f.Add([]byte("EIHX"))

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Unmarshal(data)
		if err != nil {
			return // rejected input: the only requirement is no panic
		}
		again, err := ix.MarshalBinary()
		if err != nil {
			t.Fatalf("accepted index failed to re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted blob re-marshals to different bytes:\n%x\n%x", data, again)
		}
		if ix.Len() == 0 {
			return
		}
		q := make([]float32, ix.dim) // n·dim vector floats are in data
		q[0] = 1
		ix.Search(q, 3)
	})
}
