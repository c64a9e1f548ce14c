package fleet

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
)

// lineDeflater writes one gzip member (RFC 1952) holding a single final
// dynamic-Huffman deflate block (RFC 1951). Instead of searching for
// matches, it codes each line against the line before it: one match for
// their common prefix (distance: the previous line's length), one for
// their common suffix (distance: this line's length), and the bytes
// between diffed field by field (diffFields). Most trace lines differ
// from the one before in a few t_s digits, so that diff is nearly all a
// generic LZ77 search would find, at a small fraction of its cost.
//
// A line's suffix match and the next line's prefix match copy from the
// same distance (the length of the line between them), so when both are
// taken they merge into one match across the newline.
//
// The code lengths are the constant traceCodeLengths, so the block header
// is the same for every file. Every symbol has a code, so any bytes can
// be coded.
type lineDeflater struct {
	w io.Writer
	// batch holds the lines not yet folded into crc, after the first
	// crcDone bytes, which are the previous batch's last line kept as the
	// next line's reference. A caller appends a line to batch, then calls
	// endLine.
	batch     []byte
	crcDone   int
	last, cur int // batch offsets: the previous line, the line being appended
	crc       uint32
	size      uint32 // input length mod 2^32 (gzip's ISIZE)
	// pendDist and pendLen are the match not yet coded (pendLen 0: none),
	// kept open so the next line's prefix can extend it.
	pendDist, pendLen int
	bits              uint64 // coded bits not yet in out, LSB first
	nbits             uint
	out               []byte // coded bytes not yet written to w
	err               error  // first error; later output is dropped
}

// traceBatchBytes is how many bytes of lines collect before their CRC is
// taken in one call. It never changes the file's bytes.
const traceBatchBytes = 16 << 10

// traceOutBytes is how many coded bytes collect before one Write.
const traceOutBytes = 64 << 10

// Deflate's limits: the shortest and longest match, the farthest distance.
const (
	minMatch = 3
	maxMatch = 258
	maxDist  = 32 << 10
)

// gzipHeader is a gzip member header with no name, no mtime and an
// unknown OS: what compress/gzip writes at levels other than 1 and 9.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// reset starts a new gzip member written to w, keeping the buffers.
func (z *lineDeflater) reset(w io.Writer) {
	*z = lineDeflater{w: w, batch: z.batch[:0], out: append(z.out[:0], gzipHeader[:]...)}
	z.put(1, 1) // BFINAL
	z.put(2, 2) // BTYPE 10: dynamic Huffman codes
	z.put(numLitLen-257, 5)
	z.put(numDist-1, 5)
	z.put(19-4, 4)
	// The code-length code gives each of the lengths 0–15 a 4-bit code
	// (complete, as there are 16) and the run-length codes 16–18 none.
	for _, sym := range [19]int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15} {
		if sym < 16 {
			z.put(4, 3)
		} else {
			z.put(0, 3)
		}
	}
	for _, n := range traceCodeLengths {
		z.put(uint64(bits.Reverse8(n)>>4), 4)
	}
}

// endLine codes the bytes appended to batch since the last call as one
// line. same is a count of trailing bytes the caller knows this line
// shares with the previous one (0 if unknown); it spares the compare.
//
//mobicore:hotpath
func (z *lineDeflater) endLine(same int) {
	prev, line := z.batch[z.last:z.cur], z.batch[z.cur:]
	n, m := len(line), len(prev)
	lim := min(n, m)
	p := commonPrefix(line, prev)
	s := min(same, lim-p)
	s += commonSuffix(line[p:n-s], prev[p:m-s])
	z.copyOrLiterals(line[:p], m)
	z.diffFields(line[:n-s], prev[:m-s], p, m)
	z.copyOrLiterals(line[n-s:], n)
	z.last, z.cur = z.cur, len(z.batch)
	if len(z.batch) >= traceBatchBytes {
		z.flushBatch()
	}
}

// diffFields codes line[at:], which differs from prev[at:] at both ends,
// field by field: a field starts at a comma and runs to the next, and the
// text before the first comma at or after at is a partial field. It pairs
// the k-th field of each line and codes them with diffField. So a JSON
// line whose values change keeps its keys, and any value that did not
// change, as matches. m is the previous line's length.
//
//mobicore:hotpath
func (z *lineDeflater) diffFields(line, prev []byte, at, m int) {
	i, j := at, at
	ie, je := nextComma(line, at), nextComma(prev, at)
	if ie == len(line) && je == len(prev) {
		// One partial field, which differs at both ends: the usual case
		// of a line that repeats the previous one's values.
		z.literals(line[at:])
		return
	}
	var before []byte
	for {
		z.diffField(line[i:ie], prev[j:je], before, m+i-j, m+ie-je)
		before = line[i:ie]
		i, j = ie, je
		if i == len(line) {
			return
		}
		if j == len(prev) {
			z.literals(line[i:])
			return
		}
		ie, je = nextComma(line, i+1), nextComma(prev, j+1)
	}
}

// minFieldTail is the shortest shared end of two fields in one line that
// diffField codes as a match; a shorter one costs more as a match than as
// literals.
const minFieldTail = 6

// diffField codes field a against b, the same field of the previous line:
// their common prefix as a match from dist back, the rest as literals
// except for a shared end. That is a's common suffix with b, a match from
// endDist back, or, when that is shorter than a match, a's common suffix
// with before, the field ahead of a in its own line. Power figures that
// differ by a round number (a system total over a cluster's share) often
// end in the same digits.
//
//mobicore:hotpath
func (z *lineDeflater) diffField(a, b, before []byte, dist, endDist int) {
	q := commonPrefix(a, b)
	r := commonSuffix(a[q:], b[q:])
	if r < minMatch {
		if t := commonSuffix(a[q:], before); t >= minFieldTail {
			r, endDist = t, len(a)
		}
	}
	z.copyOrLiterals(a[:q], dist)
	z.literals(a[q : len(a)-r])
	z.copyOrLiterals(a[len(a)-r:], endDist)
}

// nextComma returns the index of the first comma in b at or after i, or
// len(b).
func nextComma(b []byte, i int) int {
	if k := bytes.IndexByte(b[i:], ','); k >= 0 {
		return i + k
	}
	return len(b)
}

// commonSuffix returns the length of a and b's common suffix.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}

// commonPrefix returns the length of a and b's common prefix.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// copyOrLiterals codes b, which repeats the bytes dist back, as a match,
// or as literals when it is too short or too far back for one.
//
//mobicore:hotpath
func (z *lineDeflater) copyOrLiterals(b []byte, dist int) {
	if len(b) >= minMatch && dist <= maxDist {
		if z.pendLen > 0 && z.pendDist == dist {
			z.pendLen += len(b)
			return
		}
		z.flushMatch()
		z.pendDist, z.pendLen = dist, len(b)
		return
	}
	z.literals(b)
}

//mobicore:hotpath
func (z *lineDeflater) literals(b []byte) {
	for _, c := range b {
		z.literal(c)
	}
}

//mobicore:hotpath
func (z *lineDeflater) literal(c byte) {
	if z.pendLen > 0 {
		z.flushMatch()
	}
	z.put(uint64(litCodes[c]), uint(traceCodeLengths[c]))
}

// flushMatch codes the pending match, split into pieces of 3–258 bytes.
//
//mobicore:hotpath
func (z *lineDeflater) flushMatch() {
	l, d := z.pendLen, z.pendDist
	if l == 0 {
		return
	}
	z.pendLen = 0
	dsym, dextra, nextra := distSymbol(d)
	dcode := uint64(distCodes[dsym]) | uint64(dextra)<<traceCodeLengths[numLitLen+dsym]
	dbits := uint(traceCodeLengths[numLitLen+dsym]) + nextra
	for l > 0 {
		piece := min(l, maxMatch)
		if r := l - piece; r > 0 && r < minMatch {
			piece = l - minMatch
		}
		l -= piece
		lc := lenCodes[piece]
		z.put(uint64(lc.code), uint(lc.bits))
		z.put(dcode, dbits)
	}
}

// flushBatch folds the batch into the CRC, keeps only its last line, and
// writes the coded bytes once enough have collected.
func (z *lineDeflater) flushBatch() {
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.batch[z.crcDone:])
	z.size += uint32(len(z.batch) - z.crcDone)
	n := copy(z.batch, z.batch[z.last:])
	z.batch = z.batch[:n]
	z.crcDone, z.last, z.cur = n, 0, n
	if len(z.out) >= traceOutBytes {
		z.write()
	}
}

func (z *lineDeflater) write() {
	if z.err == nil {
		_, z.err = z.w.Write(z.out)
	}
	z.out = z.out[:0]
}

// close ends the block and writes the gzip trailer.
func (z *lineDeflater) close() error {
	z.flushBatch()
	z.flushMatch()
	z.put(uint64(litCodes[endOfBlock]), uint(traceCodeLengths[endOfBlock]))
	for z.nbits > 0 {
		z.out = append(z.out, byte(z.bits))
		z.bits >>= 8
		z.nbits -= min(8, z.nbits)
	}
	z.out = binary.LittleEndian.AppendUint32(z.out, z.crc)
	z.out = binary.LittleEndian.AppendUint32(z.out, z.size)
	z.write()
	return z.err
}

// put appends the low n bits of v to the bit stream; n ≤ 32.
//
//mobicore:hotpath
func (z *lineDeflater) put(v uint64, n uint) {
	z.bits |= v << z.nbits
	z.nbits += n
	if z.nbits >= 32 {
		z.out = binary.LittleEndian.AppendUint32(z.out, uint32(z.bits)) //mobilint:ignore out is the deflater's reused output buffer; capacity amortizes across files
		z.bits >>= 32
		z.nbits -= 32
	}
}

// distSymbol returns the distance code of d (1 ≤ d ≤ 32768), the value of
// its extra bits and how many there are.
func distSymbol(d int) (sym int, extra uint32, nextra uint) {
	x := uint32(d - 1)
	if x < 4 {
		return int(x), 0, 0
	}
	hi := uint(bits.Len32(x) - 1) // x's top bit; the code's extra bits are hi-1
	return int(2*hi) + int(x>>(hi-1))&1, x & (1<<(hi-1) - 1), hi - 1
}

// Alphabet sizes and the end-of-block symbol.
const (
	numLitLen  = 286
	numDist    = 30
	endOfBlock = 256
)

// lenCode is a match length's code and extra bits, ready to put.
type lenCode struct {
	code uint32
	bits uint8
}

// Canonical codes from traceCodeLengths, bit-reversed for LSB-first
// output, and every match length's code with its extra bits.
var (
	litCodes  [numLitLen]uint16
	distCodes [numDist]uint16
	lenCodes  [maxMatch + 1]lenCode
)

func init() {
	canonicalCodes(litCodes[:], traceCodeLengths[:numLitLen])
	canonicalCodes(distCodes[:], traceCodeLengths[numLitLen:])
	for l := minMatch; l <= maxMatch; l++ {
		sym, extra, nextra := lengthSymbol(l)
		n := traceCodeLengths[sym]
		lenCodes[l] = lenCode{code: uint32(litCodes[sym]) | extra<<n, bits: n + nextra}
	}
}

// lengthSymbol returns match length l's lit/len symbol, the value of its
// extra bits and how many there are.
func lengthSymbol(l int) (sym int, extra uint32, nextra uint8) {
	x := uint32(l - minMatch)
	switch {
	case l == maxMatch:
		return 285, 0, 0
	case x < 8:
		return 257 + int(x), 0, 0
	}
	hi := uint(bits.Len32(x) - 1) // x's top bit; the code's extra bits are hi-2
	return 257 + 4*int(hi-1) + int(x>>(hi-2))&3, x & (1<<(hi-2) - 1), uint8(hi - 2)
}

// canonicalCodes assigns deflate's canonical Huffman codes for lengths
// (RFC 1951 §3.2.2), each bit-reversed for LSB-first output.
func canonicalCodes(codes []uint16, lengths []uint8) {
	var count [16]uint16
	for _, n := range lengths {
		count[n]++
	}
	count[0] = 0
	var next [16]uint16
	code := uint16(0)
	for n := 1; n < 16; n++ {
		code = (code + count[n-1]) << 1
		next[n] = code
	}
	for i, n := range lengths {
		codes[i] = bits.Reverse16(next[n]) >> (16 - n)
		next[n]++
	}
}

// traceCodeLengths are the Huffman code lengths of the 286 literal/length
// symbols, then of the 30 distance symbols: a complete prefix code of at
// most 15 bits each (TestTraceCodeLengths). They were fitted, by
// length-limited Huffman construction, to this encoder's symbol counts on
// 30 s Nexus 5 day-in-the-life cells under three policies, 10 s SD855 EAS
// noisy sinusoids, 30 s game cells and 30 s busy loops. Noisy lines, whose
// changed digits are literals, weigh most. Every byte a trace line can
// hold got at least 1/2048 of the count. Digits get 3–4 bits; '.' and ','
// mostly ride in matches; the common lengths (a key, a line) and the
// distances of about a line get short codes.
var traceCodeLengths = [numLitLen + numDist]uint8{
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 11, 15, 15, 15, 15, 15, // 0x00
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0x10
	15, 15, 10, 15, 15, 15, 15, 15, 15, 15, 15, 11, 10, 11, 9, 15, // 0x20
	3, 3, 4, 4, 4, 4, 4, 4, 4, 3, 10, 15, 15, 15, 15, 15, // 0x30
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0x40
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 11, 15, 11, 15, 10, // 0x50
	15, 15, 15, 11, 11, 10, 15, 15, 15, 15, 15, 15, 11, 11, 11, 15, // 0x60
	15, 15, 11, 10, 10, 11, 15, 10, 15, 11, 15, 11, 15, 11, 15, 15, // 0x70
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0x80
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0x90
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xa0
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xb0
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xc0
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xd0
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xe0
	15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, // 0xf0
	15,                                                 // end of block
	10, 10, 15, 15, 14, 15, 15, 14, 11, 7, 7, 6, 10, 6, // lengths 3–26
	5, 12, 12, 15, 7, 13, 7, 5, 5, 9, 10, 15, 15, 15, 15, // lengths 27–258
	10, 10, 10, 10, 10, 10, 10, 10, 7, 4, 5, 10, 3, 1, 2, // distances 1–192
	10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, // distances 193–32768
}
