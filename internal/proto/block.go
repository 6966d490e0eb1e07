package proto

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Beeps holds a capture's beep recordings, indexed [beep][mic][sample].
// It crosses the wire as one sample block.
type Beeps [][][]float64

// Channels holds one recording per microphone, indexed [mic][sample].
// It crosses the wire as one sample block.
type Channels [][]float64

// A sample block is the binary form of a rectangular float64 array: the
// dimension count and each dimension as little-endian uint32s, then every
// sample in row-major order as its little-endian IEEE 754 bits. In JSON
// it is one padded standard base64 string, so samples cross bit for bit
// and no decimal is formatted or parsed. Only finite samples are carried,
// as with JSON numbers, which have no NaN or infinity. A dimension that
// follows a zero dimension is zero, and a block without samples has at
// most maxEmptyRows rows, so every accepted text is canonical and its row
// headers are bounded before they are allocated.

// blockEncoding refuses non-zero padding bits, so a block has one text.
var blockEncoding = base64.StdEncoding.Strict()

// maxEmptyRows bounds the rows of a block that carries no samples, whose
// text length alone does not bound them.
const maxEmptyRows = 1 << 10

// blockChunk sizes the buffers a block passes through: raw bytes, a
// multiple of 8 so no sample straddles two buffers, and base64 characters
// per decode step, a multiple of 4 so every step decodes whole quanta.
const blockChunk = 4096

// MarshalText encodes b as a sample block. It fails on a ragged array or
// a non-finite sample.
func (b Beeps) MarshalText() ([]byte, error) {
	dims := []int{len(b), 0, 0}
	if len(b) > 0 {
		dims[1] = len(b[0])
		if dims[1] > 0 {
			dims[2] = len(b[0][0])
		}
	}
	w, err := newBlockWriter(dims)
	if err != nil {
		return nil, err
	}
	for l, beep := range b {
		if len(beep) != dims[1] {
			return nil, fmt.Errorf("proto: beep %d has %d channels, want %d", l, len(beep), dims[1])
		}
		for m, ch := range beep {
			if err := w.row(ch); err != nil {
				return nil, fmt.Errorf("proto: beep %d mic %d: %w", l, m, err)
			}
		}
	}
	return w.close(), nil
}

// UnmarshalText decodes a sample block of three dimensions into one
// contiguous slab viewed as [beep][mic][sample].
func (b *Beeps) UnmarshalText(text []byte) error {
	dims, slab, err := readBlock(text, 3)
	if err != nil {
		return err
	}
	*b = split(split(slab, dims[0]*dims[1], dims[2]), dims[0], dims[1])
	return nil
}

// MarshalText encodes c as a sample block. It fails on a ragged array or
// a non-finite sample.
func (c Channels) MarshalText() ([]byte, error) {
	dims := []int{len(c), 0}
	if len(c) > 0 {
		dims[1] = len(c[0])
	}
	w, err := newBlockWriter(dims)
	if err != nil {
		return nil, err
	}
	for m, ch := range c {
		if err := w.row(ch); err != nil {
			return nil, fmt.Errorf("proto: mic %d: %w", m, err)
		}
	}
	return w.close(), nil
}

// UnmarshalText decodes a sample block of two dimensions into one
// contiguous slab viewed as [mic][sample].
func (c *Channels) UnmarshalText(text []byte) error {
	dims, slab, err := readBlock(text, 2)
	if err != nil {
		return err
	}
	*c = split(slab, dims[0], dims[1])
	return nil
}

// split cuts s into count capacity-capped views of n elements each, so
// appending to one view cannot overwrite the next.
func split[T any](s []T, count, n int) [][]T {
	out := make([][]T, count)
	for i := range out {
		out[i] = s[i*n : (i+1)*n : (i+1)*n]
	}
	return out
}

// blockWriter streams a block's header and rows into base64 text.
type blockWriter struct {
	n   int // samples per row
	out bytes.Buffer
	enc io.WriteCloser
	raw []byte // pending little-endian samples, flushed when full
}

func newBlockWriter(dims []int) (*blockWriter, error) {
	head := binary.LittleEndian.AppendUint32(make([]byte, 0, blockChunk), uint32(len(dims)))
	samples := 1
	for _, d := range dims {
		if d != 0 && samples > MaxMessageBytes/8/d {
			return nil, fmt.Errorf("proto: sample block of shape %v cannot fit in a message", dims)
		}
		samples *= d
		head = binary.LittleEndian.AppendUint32(head, uint32(d))
	}
	w := &blockWriter{n: dims[len(dims)-1], raw: head}
	w.out.Grow(blockEncoding.EncodedLen(4 + 4*len(dims) + 8*samples))
	w.enc = base64.NewEncoder(blockEncoding, &w.out)
	return w, nil
}

func (w *blockWriter) row(ch []float64) error {
	if len(ch) != w.n {
		return fmt.Errorf("%d samples, want %d: the array is ragged", len(ch), w.n)
	}
	for i, v := range ch {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("sample %d is %v: only finite samples cross the wire", i, v)
		}
		if len(w.raw)+8 > cap(w.raw) {
			w.flush()
		}
		w.raw = binary.LittleEndian.AppendUint64(w.raw, math.Float64bits(v))
	}
	return nil
}

// flush hands the pending bytes to the encoder, which writes into a
// bytes.Buffer and so cannot fail.
func (w *blockWriter) flush() {
	_, _ = w.enc.Write(w.raw)
	w.raw = w.raw[:0]
}

func (w *blockWriter) close() []byte {
	w.flush()
	_ = w.enc.Close()
	return w.out.Bytes()
}

// readBlock decodes a sample block of the given rank. It checks the
// header against the text length before it allocates the slab, and
// refuses a non-finite sample.
func readBlock(text []byte, rank int) ([]int, []float64, error) {
	head := 4 + 4*rank
	var buf [blockChunk]byte
	dec := &blockReader{text: text}
	if _, err := io.ReadFull(dec, buf[:head]); err != nil {
		return nil, nil, fmt.Errorf("proto: sample block header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(buf[:]); got != uint32(rank) {
		return nil, nil, fmt.Errorf("proto: sample block has %d dimensions, want %d", got, rank)
	}
	dims := make([]int, rank)
	samples := 1
	for i := range dims {
		d := int(binary.LittleEndian.Uint32(buf[4+4*i:]))
		if samples == 0 && d != 0 {
			return nil, nil, fmt.Errorf("proto: sample block dimension %d is %d after an empty one", i, d)
		}
		if d != 0 && samples > MaxMessageBytes/8/d {
			return nil, nil, fmt.Errorf("proto: sample block header promises more samples than a message carries")
		}
		dims[i] = d
		samples *= d
	}
	// A text of this length decodes short if it holds a line break,
	// which Decode skips, and long if it ends unpadded where the encoding
	// pads; both are refused below.
	if len(text) != blockEncoding.EncodedLen(head+8*samples) {
		return nil, nil, fmt.Errorf("proto: sample block of %d characters cannot carry the %d samples its header promises", len(text), samples)
	}
	if samples == 0 {
		rows := 1
		for _, d := range dims[:rank-1] {
			if d == 0 {
				break
			}
			if rows *= d; rows > maxEmptyRows {
				return nil, nil, fmt.Errorf("proto: empty sample block has more than %d rows", maxEmptyRows)
			}
		}
	}
	slab := make([]float64, samples)
	for i := 0; i < samples; {
		k := min(blockChunk/8, samples-i)
		if _, err := io.ReadFull(dec, buf[:8*k]); err != nil {
			return nil, nil, fmt.Errorf("proto: sample block samples: %w", err)
		}
		for j := range k {
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[8*j:]))
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, nil, fmt.Errorf("proto: sample block sample %d is %v: only finite samples are accepted", i+j, v)
			}
			slab[i+j] = v
		}
		i += k
	}
	if n, err := dec.Read(buf[:1]); n != 0 || err != io.EOF {
		return nil, nil, fmt.Errorf("proto: sample block has bytes past its samples")
	}
	return dims, slab, nil
}

// blockReader decodes base64 text a chunk at a time. Unlike
// base64.NewDecoder it makes no separate pass to drop line breaks.
type blockReader struct {
	text []byte
	buf  [blockChunk / 4 * 3]byte
	rest []byte // decoded bytes not yet read
}

func (r *blockReader) Read(p []byte) (int, error) {
	if len(r.rest) == 0 {
		if len(r.text) == 0 {
			return 0, io.EOF
		}
		chunk := r.text[:min(len(r.text), blockChunk)]
		n, err := blockEncoding.Decode(r.buf[:], chunk)
		if err != nil {
			return 0, err
		}
		r.text, r.rest = r.text[len(chunk):], r.buf[:n]
	}
	n := copy(p, r.rest)
	r.rest = r.rest[n:]
	return n, nil
}
