// Package index implements a pure-Go HNSW (hierarchical navigable small
// world) approximate-nearest-neighbour index over float32 vectors, ranked
// by cosine distance over L2-normalized vectors (see Project). It exists
// so identification can shortlist candidate users in O(log n) instead of
// scanning every per-user model.
//
// Construction is deterministic: node levels are drawn from a seeded
// counter-based generator, so the same insertion sequence always builds
// the same graph — which is what makes the persisted snapshot's
// round-trip byte-identity property testable and keeps replicas
// bit-identical.
//
// Concurrency: Search is safe for any number of concurrent callers on an
// index that is not being mutated. Add requires exclusive access; the
// serving path therefore treats a published index as immutable and
// extends a Clone (copy-on-extend), matching the registry's snapshot
// discipline.
package index

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Config tunes the graph. Zero values take the defaults below.
type Config struct {
	// M is the maximum out-degree per node on the upper layers; layer 0
	// allows 2M. Larger M raises recall and memory.
	M int
	// EfConstruction is the candidate-beam width while inserting.
	EfConstruction int
	// EfSearch is the default candidate-beam width for Search; it is
	// raised to k when k is larger.
	EfSearch int
	// Seed drives the deterministic level generator.
	Seed int64
}

// DefaultConfig balances recall against build cost for embedding
// dimensions in the tens-to-thousands range.
func DefaultConfig() Config {
	return Config{M: 16, EfConstruction: 100, EfSearch: 48, Seed: 1}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.M <= 0 {
		c.M = d.M
	}
	if c.EfConstruction <= 0 {
		c.EfConstruction = d.EfConstruction
	}
	if c.EfSearch <= 0 {
		c.EfSearch = d.EfSearch
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// Result is one neighbour: the caller-assigned ID and the cosine distance
// (1 − dot) to the query.
type Result struct {
	ID   int
	Dist float32
}

// Index is the HNSW graph. Construct with New, fill with Add.
type Index struct {
	cfg      Config
	dim      int
	ids      []int64
	vecs     []float32 // row-major, node i at [i*dim:(i+1)*dim]
	levels   []int32
	links    [][][]int32 // [node][level][neighbour node]
	entry    int32       // entry node, -1 when empty
	maxLevel int32
	rngN     uint64  // level-generator counter (persisted for resumable Adds)
	mult     float64 // level multiplier 1/ln(M)

	scratch sync.Pool
}

// New builds an empty index over vectors of the given dimension.
func New(dim int, cfg Config) (*Index, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("index: dimension %d must be positive", dim)
	}
	ix := &Index{cfg: cfg.withDefaults(), dim: dim, entry: -1}
	ix.mult = 1 / math.Log(float64(ix.cfg.M))
	return ix, nil
}

// Len returns the number of indexed vectors.
func (ix *Index) Len() int { return len(ix.ids) }

// Dim returns the dimension of the indexed vectors.
func (ix *Index) Dim() int { return ix.dim }

// ID returns the caller-assigned ID of node n, in insertion order.
func (ix *Index) ID(n int) int { return int(ix.ids[n]) }

// splitmix64 is the counter-based generator behind the level draws:
// stateless given (seed, counter), which is what keeps construction
// deterministic and resumable after deserialization.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// nextLevel draws the geometric level of the next inserted node.
func (ix *Index) nextLevel() int32 {
	h := splitmix64(uint64(ix.cfg.Seed) ^ ix.rngN)
	ix.rngN++
	// Map to (0,1]; avoid 0 so the log is finite.
	u := (float64(h>>11) + 1) / (1 << 53)
	return int32(-math.Log(u) * ix.mult)
}

// Project converts a float64 feature vector into the L2-normalized
// float32 vector the index ranks by, writing into dst when it has
// capacity (dst may be nil). The returned slice has len(x). A zero vector
// projects to zeros rather than NaN, so degenerate inputs stay
// comparable.
func Project(dst []float32, x []float64) []float32 {
	if cap(dst) < len(x) {
		dst = make([]float32, len(x))
	}
	dst = dst[:len(x)]
	var sum float64
	for _, v := range x {
		sum += v * v
	}
	if sum <= 0 {
		clear(dst)
		return dst
	}
	inv := 1 / math.Sqrt(sum)
	for i, v := range x {
		dst[i] = float32(v * inv)
	}
	return dst
}

func (ix *Index) vec(n int32) []float32 {
	return ix.vecs[int(n)*ix.dim : (int(n)+1)*ix.dim]
}

func (ix *Index) dist(q []float32, n int32) float32 {
	v := ix.vec(n)
	_ = v[len(q)-1]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= len(q); i += 4 {
		s0 += q[i] * v[i]
		s1 += q[i+1] * v[i+1]
		s2 += q[i+2] * v[i+2]
		s3 += q[i+3] * v[i+3]
	}
	for ; i < len(q); i++ {
		s0 += q[i] * v[i]
	}
	return 1 - (s0 + s1 + s2 + s3)
}

// Add inserts one vector under the caller's ID. The vector is copied; its
// length must equal the index dimension. Add is not safe for concurrent
// use (see the package comment).
func (ix *Index) Add(id int, v []float32) error {
	if len(v) != ix.dim {
		return fmt.Errorf("index: vector of dim %d in a dim-%d index", len(v), ix.dim)
	}
	n := int32(len(ix.ids))
	ix.ids = append(ix.ids, int64(id))
	ix.vecs = append(ix.vecs, v...)
	level := ix.nextLevel()
	ix.levels = append(ix.levels, level)
	ix.links = append(ix.links, make([][]int32, level+1))

	if ix.entry < 0 {
		ix.entry = n
		ix.maxLevel = level
		return nil
	}

	q := ix.vec(n)
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)

	ep := ix.entry
	epDist := ix.dist(q, ep)
	// Greedy descent through the layers above the new node's level.
	for l := ix.maxLevel; l > level; l-- {
		ep, epDist = ix.greedyStep(q, ep, epDist, l)
	}
	// Beam search and connect on each layer from min(level, maxLevel) down.
	top := level
	if top > ix.maxLevel {
		top = ix.maxLevel
	}
	for l := top; l >= 0; l-- {
		cands := ix.searchLayer(q, ep, epDist, ix.cfg.EfConstruction, l, sc)
		maxDeg := ix.cfg.M
		if l == 0 {
			maxDeg = 2 * ix.cfg.M
		}
		neighbours := ix.selectNeighbours(cands, ix.cfg.M)
		ix.links[n][l] = neighbours
		for _, nb := range neighbours {
			ix.connect(nb, n, l, maxDeg)
		}
		if len(cands) > 0 {
			ep, epDist = cands[0].node, cands[0].dist
		}
	}
	if level > ix.maxLevel {
		ix.maxLevel = level
		ix.entry = n
	}
	return nil
}

// selectNeighbours picks up to m links from candidates sorted ascending by
// distance to the base point, using the HNSW diversity heuristic: a
// candidate is kept only when it is closer to the base than to every
// already-kept neighbour, so the links spread across directions instead of
// bunching inside one cluster — what keeps the graph navigable when the
// data is clustered (every enrollee's embeddings are). Remaining slots are
// back-filled with the nearest pruned candidates so the degree, and with it
// the connectivity guarantee, is preserved.
func (ix *Index) selectNeighbours(cands []heapItem, m int) []int32 {
	if m > len(cands) {
		m = len(cands)
	}
	kept := make([]int32, 0, m)
	var pruned []heapItem
	for _, c := range cands {
		if len(kept) >= m {
			break
		}
		diverse := true
		for _, r := range kept {
			if ix.dist(ix.vec(c.node), r) < c.dist {
				diverse = false
				break
			}
		}
		if diverse {
			kept = append(kept, c.node)
		} else {
			pruned = append(pruned, c)
		}
	}
	for _, c := range pruned {
		if len(kept) >= m {
			break
		}
		kept = append(kept, c.node)
	}
	return kept
}

// connect adds `to` into from's layer-l neighbour list, re-selecting the
// maxDeg best links via the diversity heuristic when it overflows.
func (ix *Index) connect(from, to int32, l int32, maxDeg int) {
	ls := append(ix.links[from][l], to)
	if len(ls) > maxDeg {
		base := ix.vec(from)
		cands := make([]heapItem, len(ls))
		for i, nb := range ls {
			cands[i] = heapItem{ix.dist(base, nb), nb}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].dist != cands[j].dist {
				return cands[i].dist < cands[j].dist
			}
			return cands[i].node < cands[j].node
		})
		ls = ix.selectNeighbours(cands, maxDeg)
	}
	ix.links[from][l] = ls
}

// greedyStep walks to the closest neighbour at layer l until no neighbour
// improves on the current node (ef=1 descent).
func (ix *Index) greedyStep(q []float32, ep int32, epDist float32, l int32) (int32, float32) {
	for {
		improved := false
		for _, nb := range ix.links[ep][l] {
			if d := ix.dist(q, nb); d < epDist {
				ep, epDist = nb, d
				improved = true
			}
		}
		if !improved {
			return ep, epDist
		}
	}
}

// heapItem pairs a node with its distance to the current query.
type heapItem struct {
	dist float32
	node int32
}

// scratchSpace holds the per-search working state, pooled so concurrent
// searches allocate only on first use or after growth.
type scratchSpace struct {
	visited []uint32
	epoch   uint32
	cand    []heapItem // min-heap by dist
	res     []heapItem // max-heap by dist
	sorted  []heapItem // searchLayer's returned beam, ascending
}

func (ix *Index) getScratch() *scratchSpace {
	sc, _ := ix.scratch.Get().(*scratchSpace)
	if sc == nil {
		sc = &scratchSpace{}
	}
	if len(sc.visited) < len(ix.ids) {
		sc.visited = make([]uint32, len(ix.ids)+len(ix.ids)/2+8)
		sc.epoch = 0
	}
	if sc.epoch == math.MaxUint32 {
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 0
	}
	sc.epoch++
	sc.cand = sc.cand[:0]
	sc.res = sc.res[:0]
	return sc
}

// min-heap ops over cand.
func pushMin(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMin(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].dist < h[c].dist {
			c++
		}
		if h[i].dist <= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// max-heap ops over res.
func pushMax(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist >= h[i].dist {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	return h
}

func popMax(h []heapItem) (heapItem, []heapItem) {
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	i := 0
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].dist > h[c].dist {
			c++
		}
		if h[i].dist >= h[c].dist {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// searchLayer runs the beam search at one layer and returns the up-to-ef
// closest nodes, sorted ascending by distance. The returned slice aliases
// sc and is valid only until the next searchLayer call on the same
// scratch.
func (ix *Index) searchLayer(q []float32, ep int32, epDist float32, ef int, l int32, sc *scratchSpace) []heapItem {
	sc.cand = sc.cand[:0]
	sc.res = sc.res[:0]
	sc.visited[ep] = sc.epoch
	sc.cand = pushMin(sc.cand, heapItem{epDist, ep})
	sc.res = pushMax(sc.res, heapItem{epDist, ep})
	for len(sc.cand) > 0 {
		var cur heapItem
		cur, sc.cand = popMin(sc.cand)
		if len(sc.res) >= ef && cur.dist > sc.res[0].dist {
			break
		}
		for _, nb := range ix.links[cur.node][l] {
			if sc.visited[nb] == sc.epoch {
				continue
			}
			sc.visited[nb] = sc.epoch
			d := ix.dist(q, nb)
			if len(sc.res) < ef || d < sc.res[0].dist {
				sc.cand = pushMin(sc.cand, heapItem{d, nb})
				sc.res = pushMax(sc.res, heapItem{d, nb})
				if len(sc.res) > ef {
					_, sc.res = popMax(sc.res)
				}
			}
		}
	}
	sc.sorted = append(sc.sorted[:0], sc.res...)
	sortItems(sc.sorted)
	return sc.sorted
}

// sortItems orders a beam ascending by (dist, node) with insertion sort:
// beams are small (≤ efConstruction), and this keeps sort.Slice's
// reflection out of the per-query hot path.
func sortItems(items []heapItem) {
	for i := 1; i < len(items); i++ {
		it := items[i]
		j := i - 1
		for j >= 0 && (items[j].dist > it.dist || (items[j].dist == it.dist && items[j].node > it.node)) {
			items[j+1] = items[j]
			j--
		}
		items[j+1] = it
	}
}

// Search returns the approximate k nearest neighbours of q, ascending by
// cosine distance. The beam width is max(Config.EfSearch, k).
func (ix *Index) Search(q []float32, k int) []Result {
	if k <= 0 || len(ix.ids) == 0 || len(q) != ix.dim {
		return nil
	}
	ef := max(ix.cfg.EfSearch, k)
	sc := ix.getScratch()
	defer ix.scratch.Put(sc)
	ep := ix.entry
	epDist := ix.dist(q, ep)
	for l := ix.maxLevel; l > 0; l-- {
		ep, epDist = ix.greedyStep(q, ep, epDist, l)
	}
	near := ix.searchLayer(q, ep, epDist, ef, 0, sc)
	if len(near) > k {
		near = near[:k]
	}
	out := make([]Result, len(near))
	for i, it := range near {
		out[i] = Result{ID: int(ix.ids[it.node]), Dist: it.dist}
	}
	return out
}

// ScanNearest is the exact O(n) reference: a brute-force scan over every
// indexed vector. It exists for recall measurement and as the exhaustive
// baseline the scale benchmark compares against.
func (ix *Index) ScanNearest(q []float32, k int) []Result {
	if k <= 0 || len(ix.ids) == 0 || len(q) != ix.dim {
		return nil
	}
	var res []heapItem // max-heap of the best k
	for n := int32(0); n < int32(len(ix.ids)); n++ {
		d := ix.dist(q, n)
		if len(res) < k {
			res = pushMax(res, heapItem{d, n})
		} else if d < res[0].dist {
			_, res = popMax(res)
			res = pushMax(res, heapItem{d, n})
		}
	}
	sort.Slice(res, func(i, j int) bool {
		if res[i].dist != res[j].dist {
			return res[i].dist < res[j].dist
		}
		return res[i].node < res[j].node
	})
	out := make([]Result, len(res))
	for i, it := range res {
		out[i] = Result{ID: int(ix.ids[it.node]), Dist: it.dist}
	}
	return out
}

// Clone returns a deep copy that can be extended with Add without
// mutating the receiver — the copy-on-extend primitive behind the
// registry's incremental retrain.
func (ix *Index) Clone() *Index {
	c := &Index{
		cfg:      ix.cfg,
		dim:      ix.dim,
		entry:    ix.entry,
		maxLevel: ix.maxLevel,
		rngN:     ix.rngN,
		mult:     ix.mult,
	}
	c.ids = append([]int64(nil), ix.ids...)
	c.vecs = append([]float32(nil), ix.vecs...)
	c.levels = append([]int32(nil), ix.levels...)
	c.links = make([][][]int32, len(ix.links))
	for i, lv := range ix.links {
		nl := make([][]int32, len(lv))
		for l, ls := range lv {
			nl[l] = append([]int32(nil), ls...)
		}
		c.links[i] = nl
	}
	return c
}
