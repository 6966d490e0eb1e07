package index

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// randomUnit returns a random L2-normalized vector.
func randomUnit(rng *rand.Rand, dim int) []float32 {
	v := make([]float32, dim)
	var sum float64
	for i := range v {
		f := rng.NormFloat64()
		v[i] = float32(f)
		sum += f * f
	}
	inv := float32(1 / math.Sqrt(sum))
	for i := range v {
		v[i] *= inv
	}
	return v
}

func buildRandom(t testing.TB, n, dim int, seed int64) (*Index, [][]float32) {
	t.Helper()
	ix, err := New(dim, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vecs := make([][]float32, n)
	for i := 0; i < n; i++ {
		vecs[i] = randomUnit(rng, dim)
		if err := ix.Add(i+1, vecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ix, vecs
}

func TestSearchRecallAgainstScan(t *testing.T) {
	const n, dim, k, queries = 2000, 32, 10, 100
	ix, _ := buildRandom(t, n, dim, 7)
	rng := rand.New(rand.NewSource(99))
	hits, total := 0, 0
	for q := 0; q < queries; q++ {
		query := randomUnit(rng, dim)
		approx := ix.Search(query, k)
		exact := ix.ScanNearest(query, k)
		if len(approx) != k || len(exact) != k {
			t.Fatalf("got %d approx, %d exact results", len(approx), len(exact))
		}
		inExact := make(map[int]bool, k)
		for _, r := range exact {
			inExact[r.ID] = true
		}
		for _, r := range approx {
			if inExact[r.ID] {
				hits++
			}
			total++
		}
	}
	recall := float64(hits) / float64(total)
	t.Logf("recall@%d over %d queries: %.3f", k, queries, recall)
	if recall < 0.95 {
		t.Errorf("recall %.3f below 0.95", recall)
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a, _ := buildRandom(t, 500, 16, 3)
	b, _ := buildRandom(t, 500, 16, 3)
	ba, err := a.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ba, bb) {
		t.Fatal("same insertion sequence built different graphs")
	}
}

func TestIncrementalAddMatchesBatch(t *testing.T) {
	// Adding in two phases must keep the graph searchable and the new
	// vectors findable.
	const dim = 16
	ix, err := New(dim, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var vecs [][]float32
	for i := 0; i < 300; i++ {
		v := randomUnit(rng, dim)
		vecs = append(vecs, v)
		if err := ix.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	ext := ix.Clone()
	for i := 300; i < 600; i++ {
		v := randomUnit(rng, dim)
		vecs = append(vecs, v)
		if err := ext.Add(i, v); err != nil {
			t.Fatal(err)
		}
	}
	if ix.Len() != 300 || ext.Len() != 600 {
		t.Fatalf("lens %d, %d", ix.Len(), ext.Len())
	}
	// Every vector, old or new, must find itself at distance ~0.
	for i, v := range vecs {
		res := ext.Search(v, 1)
		if len(res) != 1 || res[0].ID != i {
			t.Fatalf("vector %d: self-search returned %+v", i, res)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	ix, vecs := buildRandom(t, 200, 8, 5)
	before, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	c := ix.Clone()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		if err := c.Add(1000+i, randomUnit(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	after, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("extending a clone mutated the original")
	}
	if res := ix.Search(vecs[0], 1); len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("original search broken after clone extend: %+v", res)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	ix, vecs := buildRandom(t, 400, 12, 21)
	b1, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ix2, err := Unmarshal(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ix2.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-serialization not byte-identical")
	}
	// Identical top-k for a fixed query set.
	rng := rand.New(rand.NewSource(33))
	for q := 0; q < 20; q++ {
		query := randomUnit(rng, 12)
		r1 := ix.Search(query, 5)
		r2 := ix2.Search(query, 5)
		if len(r1) != len(r2) {
			t.Fatalf("query %d: %d vs %d results", q, len(r1), len(r2))
		}
		for i := range r1 {
			if r1[i] != r2[i] {
				t.Fatalf("query %d result %d: %+v vs %+v", q, i, r1[i], r2[i])
			}
		}
	}
	// A loaded index must keep extending deterministically: the level
	// counter survives the round trip.
	ix3 := ix.Clone()
	extra := randomUnit(rng, 12)
	if err := ix2.Add(9999, extra); err != nil {
		t.Fatal(err)
	}
	if err := ix3.Add(9999, extra); err != nil {
		t.Fatal(err)
	}
	b3a, _ := ix2.MarshalBinary()
	b3b, _ := ix3.MarshalBinary()
	if !bytes.Equal(b3a, b3b) {
		t.Fatal("post-load Add diverged from in-memory Add")
	}
	_ = vecs
}

func TestUnmarshalRejectsCorrupt(t *testing.T) {
	ix, _ := buildRandom(t, 50, 8, 2)
	b, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("nil accepted")
	}
	for _, cut := range []int{3, 10, len(b) / 2, len(b) - 1} {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Unmarshal(append(append([]byte{}, b...), 1)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	bad := append([]byte{}, b...)
	bad[1] = 'Z'
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
}

// TestUnmarshalHugeHeaderAllocatesNothing feeds a bare header that claims
// 2^30 nodes: Unmarshal must reject it from the byte count alone, before
// allocating node storage the blob cannot back.
func TestUnmarshalHugeHeaderAllocatesNothing(t *testing.T) {
	ix, _ := buildRandom(t, 1, 4, 2)
	b, err := ix.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hdr := append([]byte(nil), b[:headerLen]...)
	binary.LittleEndian.PutUint32(hdr[headerLen-20:], 1<<30) // node count
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = Unmarshal(hdr)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("header claiming 2^30 nodes accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the header allocated %d bytes", grew)
	}
}

// TestIDsDoNotShapeTheGraph adds the same vectors under two different ID
// assignments: construction breaks ties on node order, never on the
// caller's ID, so both build the same graph.
func TestIDsDoNotShapeTheGraph(t *testing.T) {
	const n, dim = 300, 16
	a, err := New(dim, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(dim, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < n; i++ {
		v := randomUnit(rng, dim)
		if err := a.Add(i, v); err != nil {
			t.Fatal(err)
		}
		if err := b.Add(1+i%7, v); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(a.levels, b.levels) || a.entry != b.entry || a.maxLevel != b.maxLevel {
		t.Fatalf("levels/entry/max level differ: entry %d vs %d, max %d vs %d", a.entry, b.entry, a.maxLevel, b.maxLevel)
	}
	for i := range a.links {
		if !slices.EqualFunc(a.links[i], b.links[i], slices.Equal) {
			t.Fatalf("node %d links %v vs %v", i, a.links[i], b.links[i])
		}
	}
}

func TestProjectNormalizes(t *testing.T) {
	v := Project(nil, []float64{3, 4, 0})
	if len(v) != 3 {
		t.Fatalf("len %d", len(v))
	}
	var sum float64
	for _, f := range v {
		sum += float64(f) * float64(f)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("norm² %v, want 1", sum)
	}
	if math.Abs(float64(v[0])-0.6) > 1e-6 || math.Abs(float64(v[1])-0.8) > 1e-6 {
		t.Fatalf("got %v", v)
	}
}

func TestProjectZeroVector(t *testing.T) {
	dst := []float32{5, 5}
	v := Project(dst, []float64{0, 0})
	for _, f := range v {
		if f != 0 {
			t.Fatalf("zero input projected to %v", v)
		}
	}
}

func TestProjectReusesDst(t *testing.T) {
	dst := make([]float32, 8)
	v := Project(dst, []float64{1, 2, 3})
	if &v[0] != &dst[0] {
		t.Fatal("Project allocated despite sufficient dst capacity")
	}
	if len(v) != 3 {
		t.Fatalf("len %d", len(v))
	}
}

func TestConcurrentSearch(t *testing.T) {
	ix, vecs := buildRandom(t, 1000, 16, 9)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				v := vecs[(g*200+i)%len(vecs)]
				res := ix.Search(v, 3)
				if len(res) == 0 {
					t.Errorf("goroutine %d: empty result", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestEmptyAndDegenerate(t *testing.T) {
	ix, err := New(4, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res := ix.Search([]float32{1, 0, 0, 0}, 3); res != nil {
		t.Fatalf("empty index returned %+v", res)
	}
	if err := ix.Add(1, []float32{1, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(2, []float32{1, 0}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	res := ix.Search([]float32{1, 0, 0, 0}, 5)
	if len(res) != 1 || res[0].ID != 1 {
		t.Fatalf("singleton search: %+v", res)
	}
	if res := ix.Search([]float32{1, 0}, 1); res != nil {
		t.Fatal("query dim mismatch returned results")
	}
}
