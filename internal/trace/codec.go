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
// load: the lowest clear continuation bit marks the last byte, a mask
// drops the bytes past it and the flags, and three mask-and-shift steps
// close the 7-bit groups up. Longer values (9 and 10 bytes, where
// overflow is possible), the last seven bytes of the payload and
// malformed input go through encoding/binary, so every error is the
// one a value-at-a-time decode reports, at the same offset.
func uvarint(b []byte, off int) (uint64, int) {
	if off+8 <= len(b) {
		x := binary.LittleEndian.Uint64(b[off:])
		if ends := ^x & contMask; ends != 0 {
			x &= (ends ^ (ends - 1)) &^ contMask // the value's bytes, flags cleared
			x = x&0x007f007f007f007f | x>>1&0x3f803f803f803f80
			x = x&0x00003fff00003fff | x>>2&0x0fffc0000fffc000
			x = x&0x000000000fffffff | x>>4&0x00fffffff0000000
			return x, bits.TrailingZeros64(ends)>>3 + 1
		}
	}
	return binary.Uvarint(b[off:])
}

// zeroRun returns how many of b's leading bytes are 0x00, looking at
// most eight ahead (one 64-bit load; one byte when fewer than eight are
// left) and reporting at most max. b[0] must be zero and max ≥ 1.
func zeroRun(b []byte, max int) int {
	n := 1
	if len(b) >= 8 {
		// Little-endian load: leading zero bytes are trailing zero bits.
		n = bits.TrailingZeros64(binary.LittleEndian.Uint64(b)) >> 3
	}
	if n > max {
		n = max
	}
	return n
}

// The row kernels below decode a whole row per call: the offset lives
// in a local and the sticky error is checked once, not per value. They
// are built around what the format produces for a stable baseline —
// runs of 0x00, one per unchanged value — and consume those up to eight
// per load. Any other byte takes the same single-byte / uvarint steps
// as u and i, so non-canonical encodings (0x80 0x00) decode and
// truncated or overlong ones fail exactly as value-at-a-time reads do,
// at the same offset. After a failure the row is left as it is: a
// failed window is never handed out.

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
		if off < len(b) {
			if c := b[off]; c == 0 {
				n := zeroRun(b[off:], len(row)-j)
				run := row[j : j+n]
				for k := range run {
					run[k] = prev
				}
				off += n
				j += n
				continue
			} else if c < 0x80 {
				off++
				prev += unzigzag(uint64(c))
				row[j] = prev
				j++
				continue
			}
		}
		v, n := uvarint(b, off)
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
// cache (the leaf's previous prediction), in place. A zero byte leaves
// the cached word as it is, without a write.
func (d *dec) xorFold(cache []float64) {
	if d.err != nil {
		return
	}
	b, off := d.b, d.off
	for j := 0; j < len(cache); {
		if off < len(b) {
			if c := b[off]; c == 0 {
				n := zeroRun(b[off:], len(cache)-j)
				off += n
				j += n
				continue
			} else if c < 0x80 {
				off++
				cache[j] = math.Float64frombits(math.Float64bits(cache[j]) ^ uint64(c))
				j++
				continue
			}
		}
		v, n := uvarint(b, off)
		if n <= 0 {
			d.fail("trace: bad uvarint at offset %d", off)
			return
		}
		off += n
		cache[j] = math.Float64frombits(math.Float64bits(cache[j]) ^ v)
		j++
	}
	d.off = off
}

// skipVarints steps over n varints without decoding them, failing where
// reading them would fail. Each 64-bit load counts the varints that end
// in it — one per clear continuation bit — so a row of small values or
// zeros costs a load per eight. A value still open after eight bytes
// (nine or ten bytes long, or malformed) and the last seven bytes of
// the payload go through encoding/binary.
func (d *dec) skipVarints(n int) {
	if d.err != nil {
		return
	}
	b, off := d.b, d.off
	for n > 0 {
		if off+8 <= len(b) {
			if ends := ^binary.LittleEndian.Uint64(b[off:]) & contMask; ends != 0 {
				k := bits.OnesCount64(ends)
				if k > n {
					for ; n > 1; n-- { // make the nth end the lowest bit
						ends &= ends - 1
					}
					d.off = off + bits.TrailingZeros64(ends)>>3 + 1
					return
				}
				n -= k
				off += (63-bits.LeadingZeros64(ends))>>3 + 1
				continue
			}
		}
		_, w := binary.Uvarint(b[off:])
		if w <= 0 {
			d.fail("trace: bad varint at offset %d", off)
			return
		}
		off += w
		n--
	}
	d.off = off
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
