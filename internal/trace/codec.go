package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
)

// castagnoli is the CRC32C table every frame checksum uses (the
// polynomial with hardware support on both amd64 and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// enc builds one record payload in a reusable buffer. Integers are
// varints (zigzag for signed), floats either raw 8-byte words (rare
// records) or XOR-folded against a prediction cache (windows), strings
// length-prefixed.
type enc struct {
	b []byte
}

func (e *enc) reset() { e.b = e.b[:0] }

func (e *enc) kind(k byte)    { e.b = append(e.b, k) }
func (e *enc) u(v uint64)     { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) i(v int64)      { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) raw64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f(v float64)    { e.raw64(math.Float64bits(v)) }
func (e *enc) bit(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}
func (e *enc) s(v string) {
	e.u(uint64(len(v)))
	e.b = append(e.b, v...)
}

// dec walks one record payload. The first decode error sticks; all
// subsequent reads return zero values, so record decoders can run
// straight-line and check err once.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *dec) kind() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail("trace: truncated record")
		return 0
	}
	k := d.b[d.off]
	d.off++
	return k
}

// u reads one uvarint. A value below 0x80 is one byte — nearly every
// scalar and length in a window — and is read in place; multi-byte
// values, truncation and the sticky error go through uSlow.
func (d *dec) u() uint64 {
	if d.err == nil && d.off < len(d.b) {
		if c := d.b[d.off]; c < 0x80 {
			d.off++
			return uint64(c)
		}
	}
	return d.uSlow()
}

func (d *dec) uSlow() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := uvarint(d.b, d.off)
	if n <= 0 {
		d.fail("trace: bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// i reads one zigzag varint, with the same single-byte fast path as u.
func (d *dec) i() int64 {
	if d.err == nil && d.off < len(d.b) {
		if c := d.b[d.off]; c < 0x80 {
			d.off++
			return int64(c>>1) ^ -int64(c&1)
		}
	}
	return d.iSlow()
}

func (d *dec) iSlow() int64 {
	if d.err != nil {
		return 0
	}
	v, n := uvarint(d.b, d.off)
	if n <= 0 {
		d.fail("trace: bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return unzigzag(v)
}

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Varint bytes carry their continuation flag in the high bit; in a
// little-endian 64-bit load those are the bits of contMask.
const contMask = 0x8080808080808080

// uvarint decodes the uvarint at b[off:] and returns its value and
// width, n ≤ 0 on failure exactly as binary.Uvarint reports it. A value
// of up to eight bytes with eight bytes to load decodes from one 64-bit
// load (inWord). Longer values (9 and 10 bytes, where overflow is
// possible), the last seven bytes of the payload and malformed input go
// through encoding/binary, so every error is the one a value-at-a-time
// decode reports, at the same offset.
func uvarint(b []byte, off int) (uint64, int) {
	if off+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[off:])
		if ends := ^x & contMask; ends != 0 {
			return inWord(x, ends)
		}
	}
	return binary.Uvarint(b[off:])
}

// inWord decodes the uvarint that starts at the low byte of the
// little-endian word x and ends inside it; ends is x's clear
// continuation bits, nonzero. The lowest marks the value's last byte, a
// mask drops the bytes past it and the flags, and three mask-and-shift
// steps close the 7-bit groups up.
func inWord(x, ends uint64) (uint64, int) {
	x &= (ends ^ (ends - 1)) &^ contMask
	x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
	x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
	x = x&0x000000000fffffff | x>>4&0x00fffffff0000000
	return x, bits.TrailingZeros64(ends)>>3 + 1
}

// word returns the eight bytes at b[off:] as a little-endian word, ok
// false at the end of b. Within the last seven bytes the word is made
// up of what is left, and the bytes past the end read as 0x80: a value
// that runs into them does not end, and fails in encoding/binary as a
// value-at-a-time read of it would.
func word(b []byte, off int) (uint64, bool) {
	if off <= len(b)-8 {
		return binary.LittleEndian.Uint64(b[off:]), true
	}
	return tailWord(b, off)
}

// tailWord is word within the last seven bytes, apart so that word
// stays small enough to inline.
func tailWord(b []byte, off int) (uint64, bool) {
	if off >= len(b) {
		return 0, false
	}
	x := uint64(contMask)
	for i := len(b) - 1; i >= off; i-- {
		x = x<<8 | uint64(b[i])
	}
	return x, true
}

// lowBytes masks the k ≤ 8 low bytes of a word.
func lowBytes(k int) uint64 { return ^uint64(0) >> (uint(64-8*k) & 63) }

// The window kernels below walk a whole row or section per call, with
// the offset in a local and the sticky error checked once. They are
// built around what the format produces for a stable baseline: runs of
// one-byte values, 0x00 for each unchanged one. A word whose next k
// values (the rest of the row, at most eight) are one byte each is
// consumed whole, so the next load is the k bytes after it, an address
// that does not wait on what the last load held. Any other value of up
// to eight bytes decodes from the word already loaded (inWord; in the
// last seven bytes, from what is left of them: word); a longer one, or
// one cut short, goes through encoding/binary, so non-canonical
// encodings (0x80 0x00) decode and truncated or overlong ones fail
// exactly as value-at-a-time reads do, at the same offset. After a
// failure the row is left as it is: a failed window is never handed out.

// deltaRow decodes len(row) zigzag varints as consecutive deltas and
// stores their running sum (PortBytes, explicit AggPortBytes and each
// SenderBytes row). A zero byte repeats the previous value.
func (d *dec) deltaRow(row []int64) {
	if d.err != nil {
		return
	}
	var prev int64
	b, off := d.b, d.off
	for j := 0; j < len(row); {
		if x, ok := word(b, off); ok {
			k := min(len(row)-j, 8)
			// The values up to the first multi-byte one: all k of them in
			// a word of one-byte values.
			if c := x & lowBytes(k) & contMask; c != 0 {
				k = bits.TrailingZeros64(c) >> 3
			}
			if k > 0 {
				run := row[j : j+k]
				if m := x & lowBytes(k); m == 0 {
					for i := range run {
						run[i] = prev
					}
				} else {
					for i := range run {
						prev += unzigzag(m & 0xff)
						run[i] = prev
						m >>= 8
					}
				}
				off += k
				j += k
				continue
			}
			if ends := ^x & contMask; ends != 0 {
				v, n := inWord(x, ends)
				off += n
				prev += unzigzag(v)
				row[j] = prev
				j++
				continue
			}
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			d.fail("trace: bad varint at offset %d", off)
			return
		}
		off += n
		prev += unzigzag(v)
		row[j] = prev
		j++
	}
	d.off = off
}

// xorFold decodes len(cache) uvarints and XORs each into its word of
// cache (the leaf's previous prediction), in place.
func (d *dec) xorFold(cache []float64) {
	if d.err != nil {
		return
	}
	off, ok := foldSpan(d.b, d.off, cache)
	if !ok {
		d.fail("trace: bad uvarint at offset %d", off)
		return
	}
	d.off = off
}

// foldRows decodes len(rows) rows, each a length and then that many
// uvarints folded into the next words of cache as xorFold does, and
// points rows[i] at the same words of flat. A row's length is read in
// place (count1) where it is one byte. It returns how many words the
// rows held; more than len(cache) fails before the row that overflows
// is folded.
func (d *dec) foldRows(cache, flat []float64, rows [][]float64) int {
	if d.err != nil {
		return 0
	}
	b, off := d.b, d.off
	k := 0
	for i := range rows {
		n, next, ok := count1(b, off)
		if !ok {
			d.off = off
			if n = d.count(1); d.err != nil {
				return k
			}
			next = d.off
		}
		if k+n > len(cache) {
			d.fail("trace: sender prediction rows exceed declared count %d", len(cache))
			return k
		}
		if off, ok = foldSpan(b, next, cache[k:k+n]); !ok {
			d.fail("trace: bad uvarint at offset %d", off)
			return k
		}
		rows[i] = flat[k : k+n : k+n]
		k += n
	}
	d.off = off
	return k
}

// foldSpan XORs the len(row) uvarints at b[off:] into row and returns
// the offset past them, or a bad value's offset and false. A zero byte
// leaves its word as it is, without a write.
func foldSpan(b []byte, off int, row []float64) (int, bool) {
	for j := 0; j < len(row); {
		x, ok := word(b, off)
		k := min(len(row)-j, 8)
		if m := x & lowBytes(k); ok && m&contMask == 0 {
			for i := j; m != 0; i++ {
				row[i] = math.Float64frombits(math.Float64bits(row[i]) ^ m&0xff)
				m >>= 8
			}
			off += k
			j += k
			// After an unchanged word, the rest of a stable prediction
			// eight unchanged words at a time.
			for x == 0 && j+8 <= len(row) && off <= len(b)-8 && binary.LittleEndian.Uint64(b[off:]) == 0 {
				off += 8
				j += 8
			}
			continue
		}
		if ends := ^x & contMask; ok && ends != 0 {
			v, n := inWord(x, ends)
			off += n
			row[j] = math.Float64frombits(math.Float64bits(row[j]) ^ v)
			j++
			continue
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			return off, false
		}
		off += n
		row[j] = math.Float64frombits(math.Float64bits(row[j]) ^ v)
		j++
	}
	return off, true
}

// sectionEnd checks the per-sender section at b[off:] (a row count,
// then each row's length and deltas) and returns where it ends, without
// decoding a value. A row of n values spans at least n bytes, so the
// words in its first n bytes are loaded back to back, each taking the
// values that end in it (its clear continuation bits) off the row. The
// fewer than eight left end in one more word, where a byte-wise running
// count of ends finds the row's last byte. ok is false on anything else
// a section may hold — a count or row length of two bytes or more, or
// over the payload; a value longer than eight bytes; fewer than eight
// bytes left to load — and the caller walks the section value at a time
// from its start (skipSection), failing where and as a malformed one
// must.
func sectionEnd(b []byte, off int) (int, bool) {
	rows, off, ok := count1(b, off)
	for ; ok && rows > 0; rows-- {
		var left int
		if left, off, ok = count1(b, off); !ok {
			break
		}
		// A value is nine bytes or longer exactly when the ends of the
		// word before it all lie below the lowest end of the word it
		// ends in: prev is the last word's ends, as if one ended just
		// before the row.
		prev := uint64(1) << 63
		for left >= 8 {
			end := off + left&^7
			if end > len(b) {
				return 0, false
			}
			for ; off < end; off += 8 {
				ends := ^binary.LittleEndian.Uint64(b[off:]) & contMask
				if prev <= ends&-ends-1 {
					return 0, false
				}
				left -= bits.OnesCount64(ends)
				prev = ends
			}
		}
		for left > 0 {
			if off+8 > len(b) {
				return 0, false
			}
			ends := ^binary.LittleEndian.Uint64(b[off:]) & contMask
			if prev <= ends&-ends-1 {
				return 0, false
			}
			if k := bits.OnesCount64(ends); k < left {
				left -= k
				prev = ends
				off += 8
				continue
			}
			// Byte i of c counts the ends in bytes 0..i: the first
			// count to reach left is at the row's last byte.
			c := ends >> 7 * 0x0101010101010101
			off += bits.TrailingZeros64((c+uint64(0x80-left)*0x0101010101010101)&contMask)>>3 + 1
			left = 0
		}
	}
	return off, ok
}

// count1 is count(1) on a one-byte length: the length at b[off] and the
// offset past it, ok false where count would read more or fail.
func count1(b []byte, off int) (int, int, bool) {
	if off < len(b) && b[off] < 0x80 && int(b[off]) <= len(b)-off {
		return int(b[off]), off + 1, true
	}
	return 0, off, false
}

// skipSection steps over the per-sender section value at a time: the
// fallback of sectionEnd, and the check every malformed section fails.
func (d *dec) skipSection() {
	for rows := d.count(1); rows > 0 && d.err == nil; rows-- {
		for n := d.count(1); n > 0; n-- {
			d.i()
		}
	}
}

func (d *dec) raw64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail("trace: truncated 8-byte word at offset %d", d.off)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *dec) f() float64 { return math.Float64frombits(d.raw64()) }

func (d *dec) bit() bool { return d.kind() != 0 }

func (d *dec) s() string {
	n := d.u()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail("trace: string length %d exceeds payload", n)
		return ""
	}
	v := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return v
}

// count reads a collection length and bounds it against the remaining
// payload (minBytes is the smallest possible encoding of one element),
// so a corrupt length cannot drive a giant allocation.
func (d *dec) count(minBytes int) int {
	if n, off, ok := count1(d.b, d.off); ok && minBytes == 1 && d.err == nil {
		d.off = off // every row length in a window
		return n
	}
	n := d.u()
	if d.err != nil {
		return 0
	}
	// Every per-window collection has minBytes 1: skip the division.
	rem := len(d.b) - d.off
	if minBytes > 1 {
		rem /= minBytes
	}
	if n > uint64(rem+1) {
		d.fail("trace: collection length %d exceeds payload", n)
		return 0
	}
	return int(n)
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("trace: %d trailing bytes in record", len(d.b)-d.off)
	}
	return nil
}

// predCache is the per-(job, leaf) previous-prediction state the float
// XOR folding runs against: a prediction that did not change since the
// leaf's previous window encodes as a single zero byte.
type predCache struct {
	port   []float64
	sender []float64
}

func (c *predCache) size(ports, senders int) {
	if len(c.port) != ports {
		c.port = make([]float64, ports)
	}
	if len(c.sender) != senders {
		c.sender = make([]float64, senders)
	}
}

func cacheKey(job uint16, leafOrd int) uint64 {
	return uint64(job)<<32 | uint64(uint32(leafOrd))
}

// fnv64Offset/fnv64Prime are the FNV-64a parameters of the event
// fingerprint (same family the simtest replay oracle uses).
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// fpState accumulates the alert/remediation stream fingerprint without
// allocating: the online Writer and the offline replay both fold every
// event and action through it, and equality of the two sums is the
// bit-identical-replay guarantee.
type fpState struct {
	h uint64
}

func newFP() fpState { return fpState{h: fnv64Offset} }

func (f *fpState) u64(v uint64) {
	for i := 0; i < 8; i++ {
		f.h = (f.h ^ uint64(byte(v>>(8*i)))) * fnv64Prime
	}
}

func (f *fpState) i64(v int64)   { f.u64(uint64(v)) }
func (f *fpState) f64(v float64) { f.u64(math.Float64bits(v)) }

func (f *fpState) str(s string) {
	for i := 0; i < len(s); i++ {
		f.h = (f.h ^ uint64(s[i])) * fnv64Prime
	}
	f.u64(uint64(len(s)))
}
