package index

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Binary form: header (magic, version, config, dim, counts, entry,
// max level, level-generator counter), then IDs, levels, adjacency
// lists, and vector bits — all little-endian, in insertion order, so an
// index re-serializes byte-identically after a load (construction is
// deterministic and the serialized order is the stored order).
const (
	idxMagic   = "EIHX"
	idxVersion = 1
	headerLen  = 50 // magic through the level-generator counter
)

// MarshalBinary implements a deterministic stable serialization.
func (ix *Index) MarshalBinary() ([]byte, error) {
	n := len(ix.ids)
	out := make([]byte, 0, headerLen+12*n+4*len(ix.vecs))
	out = append(out, idxMagic...)
	out = binary.LittleEndian.AppendUint16(out, idxVersion)
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.cfg.M))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.cfg.EfConstruction))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.cfg.EfSearch))
	out = binary.LittleEndian.AppendUint64(out, uint64(ix.cfg.Seed))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.dim))
	out = binary.LittleEndian.AppendUint32(out, uint32(n))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.entry))
	out = binary.LittleEndian.AppendUint32(out, uint32(ix.maxLevel))
	out = binary.LittleEndian.AppendUint64(out, ix.rngN)
	for _, id := range ix.ids {
		out = binary.LittleEndian.AppendUint64(out, uint64(id))
	}
	for _, l := range ix.levels {
		out = binary.LittleEndian.AppendUint32(out, uint32(l))
	}
	for _, lv := range ix.links {
		for _, ls := range lv {
			out = binary.LittleEndian.AppendUint32(out, uint32(len(ls)))
			for _, nb := range ls {
				out = binary.LittleEndian.AppendUint32(out, uint32(nb))
			}
		}
	}
	for _, v := range ix.vecs {
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(v))
	}
	return out, nil
}

// reader is a bounds-checked cursor over the serialized form.
type reader struct {
	b   []byte
	off int
}

// left returns the number of unread bytes.
func (r *reader) left() int { return len(r.b) - r.off }

func (r *reader) u16() (uint16, error) {
	if r.off+2 > len(r.b) {
		return 0, fmt.Errorf("index: truncated blob at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.b) {
		return 0, fmt.Errorf("index: truncated blob at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.b) {
		return 0, fmt.Errorf("index: truncated blob at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// Unmarshal decodes a serialized index, validating every structural
// invariant (neighbour references in range, level counts consistent,
// exact length) so a truncated or corrupted snapshot is rejected rather
// than loaded into a crashing graph.
func Unmarshal(b []byte) (*Index, error) {
	if len(b) < 4 || string(b[:4]) != idxMagic {
		return nil, fmt.Errorf("index: bad magic")
	}
	r := &reader{b: b, off: 4}
	ver, err := r.u16()
	if err != nil {
		return nil, err
	}
	if ver != idxVersion {
		return nil, fmt.Errorf("index: version %d, want %d", ver, idxVersion)
	}
	var cfg Config
	m, err := r.u32()
	if err != nil {
		return nil, err
	}
	efc, err := r.u32()
	if err != nil {
		return nil, err
	}
	efs, err := r.u32()
	if err != nil {
		return nil, err
	}
	seed, err := r.u64()
	if err != nil {
		return nil, err
	}
	cfg.M, cfg.EfConstruction, cfg.EfSearch, cfg.Seed = int(m), int(efc), int(efs), int64(seed)
	if cfg.M <= 0 || cfg.EfConstruction <= 0 || cfg.EfSearch <= 0 || cfg.Seed == 0 {
		return nil, fmt.Errorf("index: invalid config (M %d, efc %d, efs %d, seed %d)", cfg.M, cfg.EfConstruction, cfg.EfSearch, cfg.Seed)
	}
	dim, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u32()
	if err != nil {
		return nil, err
	}
	entry, err := r.u32()
	if err != nil {
		return nil, err
	}
	maxLevel, err := r.u32()
	if err != nil {
		return nil, err
	}
	rngN, err := r.u64()
	if err != nil {
		return nil, err
	}
	if dim == 0 || dim > 1<<24 || count > 1<<30 {
		return nil, fmt.Errorf("index: invalid header (dim %d, count %d)", dim, count)
	}
	ix, err := New(int(dim), cfg)
	if err != nil {
		return nil, err
	}
	ix.rngN = rngN
	n := int(count)
	if n == 0 {
		if int32(entry) != -1 || maxLevel != 0 {
			return nil, fmt.Errorf("index: empty index with entry %d, max level %d", int32(entry), maxLevel)
		}
		if r.off != len(b) {
			return nil, fmt.Errorf("index: %d trailing bytes", len(b)-r.off)
		}
		return ix, nil
	}
	if int(entry) >= n {
		return nil, fmt.Errorf("index: entry %d out of range (%d nodes)", entry, n)
	}
	// Every node needs at least its ID, level, one link count and its
	// vector; check that against the bytes left before allocating, so a
	// corrupt header cannot force an allocation the blob cannot back.
	if need := uint64(n) * (8 + 4 + 4 + 4*uint64(dim)); need > uint64(r.left()) {
		return nil, fmt.Errorf("index: %d nodes of dim %d need at least %d bytes, %d left", n, dim, need, r.left())
	}
	ix.entry = int32(entry)
	ix.maxLevel = int32(maxLevel)
	ix.ids = make([]int64, n)
	for i := range ix.ids {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		ix.ids[i] = int64(v)
	}
	ix.levels = make([]int32, n)
	for i := range ix.levels {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		if int32(v) < 0 || int32(v) > ix.maxLevel {
			return nil, fmt.Errorf("index: node %d level %d above max %d", i, int32(v), ix.maxLevel)
		}
		ix.levels[i] = int32(v)
	}
	if ix.levels[entry] != ix.maxLevel {
		return nil, fmt.Errorf("index: entry node level %d != max level %d", ix.levels[entry], ix.maxLevel)
	}
	ix.links = make([][][]int32, n)
	for i := 0; i < n; i++ {
		if 4*(int(ix.levels[i])+1) > r.left() {
			return nil, fmt.Errorf("index: truncated blob at node %d's %d levels", i, ix.levels[i]+1)
		}
		lv := make([][]int32, ix.levels[i]+1)
		for l := range lv {
			cnt, err := r.u32()
			if err != nil {
				return nil, err
			}
			if int(cnt) > 2*cfg.M {
				return nil, fmt.Errorf("index: node %d level %d has %d links (max %d)", i, l, cnt, 2*cfg.M)
			}
			if 4*int(cnt) > r.left() {
				return nil, fmt.Errorf("index: truncated blob at node %d level %d's %d links", i, l, cnt)
			}
			ls := make([]int32, cnt)
			for j := range ls {
				nb, err := r.u32()
				if err != nil {
					return nil, err
				}
				if int(nb) >= n {
					return nil, fmt.Errorf("index: node %d links to %d (only %d nodes)", i, nb, n)
				}
				if int(ix.levels[nb]) < l {
					return nil, fmt.Errorf("index: node %d level-%d link to node %d of level %d", i, l, nb, ix.levels[nb])
				}
				ls[j] = int32(nb)
			}
			lv[l] = ls
		}
		ix.links[i] = lv
	}
	ix.vecs = make([]float32, n*int(dim))
	for i := range ix.vecs {
		v, err := r.u32()
		if err != nil {
			return nil, err
		}
		ix.vecs[i] = math.Float32frombits(v)
	}
	if r.off != len(b) {
		return nil, fmt.Errorf("index: %d trailing bytes", len(b)-r.off)
	}
	return ix, nil
}
