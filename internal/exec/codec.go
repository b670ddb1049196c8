package exec

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"reflect"
	"unsafe"

	"taskml/internal/mat"
)

// The value codec: how everything inside request.Args, response.Vals and
// peerResponse.Val is laid out in a frame (wire.go). One tag byte, then a
// body that depends on the tag:
//
//	tag            body
//	nil            —
//	bool           1 byte, 0 or 1
//	int, int64     zigzag varint
//	uint64         uvarint
//	float64        8 bytes, little-endian IEEE bits
//	string         uvarint length, bytes
//	[]float64      length+1 (0 = nil), 8 raw bytes per element
//	[][]float64    length+1, each row as a []float64 body
//	[]int          length+1, one zigzag varint per element
//	[]bool         length+1, one byte per element
//	[]string       length+1, each as a string body
//	[]any          length+1, each as a tagged value
//	*mat.Dense     rows, cols, then Data as a []float64 body
//	nil *mat.Dense —
//	ValueRef       session uvarint, task varint, out varint
//	RefValue       ValueRef body, then a tagged value
//	PeerRef        ValueRef body, addr string, token string
//	named          type name string, then the body its RegisterCodec wrote
//	fallback       uvarint length, one self-contained gob stream
//
// Float bits are copied, never converted, so NaN payloads and −0 cross
// unchanged; []int stays varint because row-index slices would quadruple as
// raw int64. Every encoding but the fallback's is canonical (minimal
// varints, 0/1 bools, no trailing bytes), so a frame that decodes re-encodes
// to the same bytes.
const (
	tagNil byte = iota
	tagBool
	tagInt
	tagInt64
	tagUint64
	tagFloat64
	tagString
	tagFloat64s
	tagFloat64Rows
	tagInts
	tagBools
	tagStrings
	tagAnys
	tagDense
	tagNilDense
	tagValueRef
	tagRefValue
	tagPeerRef
	tagNamed
	tagFallback
)

// maxWireDepth bounds the nesting of []any values and of whatever recursive
// structure a registered codec walks under Decoder.Nest: a hostile frame
// must not be able to recurse the decoder off the end of its stack.
const maxWireDepth = 1 << 14

// hostLittleEndian reports whether a []float64 already is its wire form in
// memory. On such hosts bulk payloads are written from, and read into, the
// backing array itself.
var hostLittleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// float64Bytes views s as its backing bytes.
func float64Bytes(s []float64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// valueCodec is the binary wire form of one registered domain type.
type valueCodec struct {
	name string
	enc  func(*Encoder, any)
	dec  func(*Decoder) any
}

var (
	codecByType = map[reflect.Type]*valueCodec{}
	codecByName = map[string]*valueCodec{}
)

// RegisterCodec gives T a hand-written binary wire form: enc writes a value
// with the Encoder's methods and dec reads it back in the same order. The
// type travels under its Go name ("*forest.TrainSet"), so both ends must
// link the registering package — which holds whenever they can run the same
// task bodies. dec reports malformed input through Decoder.Fail (the
// Decoder's own methods do so themselves) and must check a length with
// Decoder.Len before allocating from it. A type without a codec still
// crosses the wire, through RegisterType and gob.
//
// Call it from the init that registers the bodies using T; like Register it
// panics on a duplicate.
func RegisterCodec[T any](enc func(*Encoder, T), dec func(*Decoder) T) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	c := &valueCodec{
		name: t.String(),
		enc:  func(e *Encoder, v any) { enc(e, v.(T)) },
		dec:  func(d *Decoder) any { return dec(d) },
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := codecByName[c.name]; dup {
		panic(fmt.Sprintf("exec: duplicate codec for %s", c.name))
	}
	codecByType[t] = c
	codecByName[c.name] = c
}

// Encoder writes wire values. A frame body is encoded twice through the
// same code: once with no writer, which only counts bytes (the frame's
// length prefix), and once into the connection's buffered writer. Bulk
// float payloads larger than that buffer go from the backing array straight
// to the socket.
type Encoder struct {
	w   *bufio.Writer // nil on the counting pass
	n   int           // bytes produced by the current pass
	err error         // first value that could not be encoded
	buf [binary.MaxVarintLen64]byte
	// blobs holds the fallback encodings made on the counting pass, replayed
	// in order on the writing pass so gob runs once per value.
	blobs [][]byte
	blob  int
}

// errEncode marks a frame refused before any byte of it was written: the
// connection is still in step and the caller may send something else.
var errEncode = errors.New("exec: value cannot be encoded")

// size runs body as the counting pass and returns the bytes it will write.
func (e *Encoder) size(body func(*Encoder)) (int, error) {
	e.w, e.n, e.err, e.blobs, e.blob = nil, 0, nil, e.blobs[:0], 0
	body(e)
	if e.err != nil {
		return 0, fmt.Errorf("%w: %v", errEncode, e.err)
	}
	return e.n, nil
}

// emit runs body as the writing pass into w; size must have run first. It
// fails when the value changed between the passes — the frame on the wire
// no longer matches its length prefix.
func (e *Encoder) emit(w *bufio.Writer, body func(*Encoder)) error {
	want := e.n
	e.w, e.n, e.blob = w, 0, 0
	body(e)
	e.w = nil
	if e.n != want {
		return fmt.Errorf("exec: frame body changed while being sent (%d bytes, then %d)", want, e.n)
	}
	return nil
}

func (e *Encoder) fail(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *Encoder) write(p []byte) {
	e.n += len(p)
	if e.w != nil {
		_, _ = e.w.Write(p) // the writer keeps its first error for Flush
	}
}

func (e *Encoder) byte(b byte) {
	e.buf[0] = b
	e.write(e.buf[:1])
}

func (e *Encoder) uvarint(x uint64) { e.write(binary.AppendUvarint(e.buf[:0], x)) }
func (e *Encoder) varint(x int64)   { e.write(binary.AppendVarint(e.buf[:0], x)) }

func (e *Encoder) str(s string) {
	e.uvarint(uint64(len(s)))
	e.n += len(s)
	if e.w != nil {
		_, _ = e.w.WriteString(s)
	}
}

// sliceLen writes the length of a slice body: 0 for nil, else length+1.
func (e *Encoder) sliceLen(n int, isNil bool) {
	if isNil {
		e.uvarint(0)
		return
	}
	e.uvarint(uint64(n) + 1)
}

// Bool writes one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

// Int writes a zigzag varint.
func (e *Encoder) Int(x int) { e.varint(int64(x)) }

// Len writes an element count; the decoder reads it with Decoder.Len.
func (e *Encoder) Len(n int) { e.uvarint(uint64(n)) }

// Float64 writes the value's bits.
func (e *Encoder) Float64(f float64) {
	binary.LittleEndian.PutUint64(e.buf[:8], math.Float64bits(f))
	e.write(e.buf[:8])
}

// Float64s writes s, nil-ness included, copying the bits of every element.
func (e *Encoder) Float64s(s []float64) {
	e.sliceLen(len(s), s == nil)
	switch {
	case hostLittleEndian:
		e.write(float64Bytes(s))
	case e.w == nil:
		e.n += 8 * len(s)
	default:
		for _, f := range s {
			e.Float64(f)
		}
	}
}

// Ints writes s, nil-ness included, one varint per element.
func (e *Encoder) Ints(s []int) {
	e.sliceLen(len(s), s == nil)
	for _, x := range s {
		e.varint(int64(x))
	}
}

// Dense writes a non-nil matrix.
func (e *Encoder) Dense(m *mat.Dense) {
	if m.Rows < 0 || m.Cols < 0 || m.Rows*m.Cols != len(m.Data) {
		e.fail(fmt.Errorf("%dx%d matrix holds %d elements", m.Rows, m.Cols, len(m.Data)))
		return
	}
	e.uvarint(uint64(m.Rows))
	e.uvarint(uint64(m.Cols))
	e.Float64s(m.Data)
}

func (e *Encoder) ref(r ValueRef) {
	e.uvarint(r.Session)
	e.varint(int64(r.Task))
	e.varint(int64(r.Out))
}

func (e *Encoder) refs(rs []ValueRef) {
	e.Len(len(rs))
	for _, r := range rs {
		e.ref(r)
	}
}

func (e *Encoder) anys(vs []any) {
	e.sliceLen(len(vs), vs == nil)
	for _, v := range vs {
		e.Value(v)
	}
}

// Value writes v behind its tag: natively for the built-in kinds and the
// RegisterCodec types, through the gob fallback for anything else.
func (e *Encoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.byte(tagNil)
	case bool:
		e.byte(tagBool)
		e.Bool(x)
	case int:
		e.byte(tagInt)
		e.varint(int64(x))
	case int64:
		e.byte(tagInt64)
		e.varint(x)
	case uint64:
		e.byte(tagUint64)
		e.uvarint(x)
	case float64:
		e.byte(tagFloat64)
		e.Float64(x)
	case string:
		e.byte(tagString)
		e.str(x)
	case []float64:
		e.byte(tagFloat64s)
		e.Float64s(x)
	case [][]float64:
		e.byte(tagFloat64Rows)
		e.sliceLen(len(x), x == nil)
		for _, row := range x {
			e.Float64s(row)
		}
	case []int:
		e.byte(tagInts)
		e.Ints(x)
	case []bool:
		e.byte(tagBools)
		e.sliceLen(len(x), x == nil)
		for _, b := range x {
			e.Bool(b)
		}
	case []string:
		e.byte(tagStrings)
		e.sliceLen(len(x), x == nil)
		for _, s := range x {
			e.str(s)
		}
	case []any:
		e.byte(tagAnys)
		e.anys(x)
	case *mat.Dense:
		if x == nil {
			e.byte(tagNilDense)
			return
		}
		e.byte(tagDense)
		e.Dense(x)
	case ValueRef:
		e.byte(tagValueRef)
		e.ref(x)
	case RefValue:
		e.byte(tagRefValue)
		e.ref(x.Ref)
		e.Value(x.Val)
	case PeerRef:
		e.byte(tagPeerRef)
		e.ref(x.Ref)
		e.str(x.Addr)
		e.str(x.Token)
	default:
		regMu.RLock()
		c := codecByType[reflect.TypeOf(v)]
		regMu.RUnlock()
		if c != nil {
			e.byte(tagNamed)
			e.str(c.name)
			c.enc(e, v)
			return
		}
		e.byte(tagFallback)
		e.fallback(v)
	}
}

// fallback writes v as a length-prefixed gob stream, encoding it on the
// counting pass and replaying the bytes on the writing pass.
func (e *Encoder) fallback(v any) {
	var b []byte
	if e.w == nil {
		var err error
		if b, err = encodeFallback(v); err != nil {
			e.fail(err)
			return
		}
		e.blobs = append(e.blobs, b)
	} else {
		b = e.blobs[e.blob]
		e.blob++
	}
	e.uvarint(uint64(len(b)))
	e.write(b)
}

// Decoder reads wire values out of one frame. It never trusts a length: a
// count is checked against the bytes the frame has left before anything is
// allocated from it, and the frame itself is bounded (wire.go), so a corrupt
// or hostile peer costs an error, not memory. The first error sticks; every
// later read returns a zero value, so codecs decode straight through and the
// frame reader checks once.
type Decoder struct {
	r     *bufio.Reader
	rem   int // bytes of the current frame not yet read
	depth int
	err   error
	buf   [8]byte
}

// Fail records err as the frame's decode error unless one is already set.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Err returns the frame's decode error, if any; loops over a decoded count
// stop on it.
func (d *Decoder) Err() error { return d.err }

// prealloc caps the capacity reserved up front for n elements whose memory
// is larger than their encoding (a one-byte varint becomes an eight-byte
// int): the rest is appended as its bytes actually arrive, so what a frame
// can make the decoder allocate stays within a small factor of the bytes
// the peer really sent.
func prealloc(n int) int { return min(n, 1<<12) }

// readFull fills p from the frame; bulk reads bypass the reader's buffer and
// land in p directly.
func (d *Decoder) readFull(p []byte) {
	if d.err != nil {
		return
	}
	if len(p) > d.rem {
		d.Fail(fmt.Errorf("value runs %d bytes past the end of its frame", len(p)-d.rem))
		return
	}
	d.rem -= len(p)
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.Fail(err)
	}
}

func (d *Decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.rem < 1 {
		d.Fail(errors.New("value runs past the end of its frame"))
		return 0
	}
	d.rem--
	b, err := d.r.ReadByte()
	if err != nil {
		d.Fail(err)
	}
	return b
}

// uvarint reads a minimally-encoded unsigned varint.
func (d *Decoder) uvarint() uint64 {
	var x uint64
	for shift := uint(0); ; shift += 7 {
		b := d.byte()
		if d.err != nil {
			return 0
		}
		if shift == 63 && b > 1 {
			d.Fail(errors.New("varint overflows 64 bits"))
			return 0
		}
		if b < 0x80 {
			if b == 0 && shift > 0 {
				d.Fail(errors.New("varint is not minimally encoded"))
				return 0
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
}

func (d *Decoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

func (d *Decoder) str() string {
	n := d.Len(1)
	if n == 0 {
		return ""
	}
	b := make([]byte, n)
	d.readFull(b)
	if d.err != nil {
		return ""
	}
	return unsafe.String(&b[0], n)
}

// sliceLen reads a slice body's length (see Encoder.sliceLen), checked
// against the frame like Len.
func (d *Decoder) sliceLen(elemBytes int) (n int, isNil bool) {
	u := d.uvarint()
	if u == 0 {
		return 0, true
	}
	return d.checkLen(u-1, elemBytes), false
}

func (d *Decoder) checkLen(n uint64, elemBytes int) int {
	if d.err != nil {
		return 0
	}
	if n > uint64(d.rem)/uint64(elemBytes) {
		d.Fail(fmt.Errorf("%d elements of at least %d bytes in a frame with %d bytes left", n, elemBytes, d.rem))
		return 0
	}
	return int(n)
}

// Bool reads one byte, which must be 0 or 1.
func (d *Decoder) Bool() bool {
	b := d.byte()
	if b > 1 {
		d.Fail(fmt.Errorf("bool byte %#x", b))
	}
	return b == 1
}

// Int reads a zigzag varint.
func (d *Decoder) Int() int {
	x := d.varint()
	if int64(int(x)) != x {
		d.Fail(fmt.Errorf("%d overflows int", x))
		return 0
	}
	return int(x)
}

// Len reads an element count written by Encoder.Len and fails the frame
// unless that many elements of at least elemBytes encoded bytes each (≥ 1)
// can still follow — the check that must precede any make.
func (d *Decoder) Len(elemBytes int) int { return d.checkLen(d.uvarint(), elemBytes) }

// Float64 reads eight bytes of bits.
func (d *Decoder) Float64() float64 {
	d.readFull(d.buf[:8])
	if d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.buf[:8]))
}

// Float64s reads a slice written by Encoder.Float64s straight into its
// destination.
func (d *Decoder) Float64s() []float64 {
	n, isNil := d.sliceLen(8)
	if isNil || d.err != nil {
		return nil
	}
	s := make([]float64, n)
	if hostLittleEndian {
		d.readFull(float64Bytes(s))
	} else {
		for i := 0; i < n && d.err == nil; i++ {
			s[i] = d.Float64()
		}
	}
	if d.err != nil {
		return nil
	}
	return s
}

// Ints reads a slice written by Encoder.Ints.
func (d *Decoder) Ints() []int {
	n, isNil := d.sliceLen(1)
	if isNil || d.err != nil {
		return nil
	}
	s := make([]int, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, d.Int())
	}
	return s
}

// Dense reads a matrix written by Encoder.Dense; rows×cols must equal the
// element count that follows.
func (d *Decoder) Dense() *mat.Dense {
	rows, cols := d.uvarint(), d.uvarint()
	data := d.Float64s()
	if d.err != nil {
		return nil
	}
	if hi, lo := bits.Mul64(rows, cols); hi != 0 || lo != uint64(len(data)) || rows > math.MaxInt || cols > math.MaxInt {
		d.Fail(fmt.Errorf("%dx%d matrix with %d elements", rows, cols, len(data)))
		return nil
	}
	return &mat.Dense{Rows: int(rows), Cols: int(cols), Data: data}
}

// Nest enters one level of a recursive structure and reports whether the
// decoder may go deeper; a codec that recurses calls it on the way down and
// Unnest on the way up, so nesting depth is bounded like []any's.
func (d *Decoder) Nest() bool {
	if d.err != nil {
		return false
	}
	if d.depth >= maxWireDepth {
		d.Fail(fmt.Errorf("value nests deeper than %d", maxWireDepth))
		return false
	}
	d.depth++
	return true
}

// Unnest leaves a level entered with Nest.
func (d *Decoder) Unnest() { d.depth-- }

func (d *Decoder) ref() ValueRef {
	return ValueRef{Session: d.uvarint(), Task: d.Int(), Out: d.Int()}
}

func (d *Decoder) refs() []ValueRef {
	n := d.Len(3)
	if n == 0 {
		return nil
	}
	rs := make([]ValueRef, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		rs = append(rs, d.ref())
	}
	return rs
}

func (d *Decoder) anys() []any {
	n, isNil := d.sliceLen(1)
	if isNil || !d.Nest() {
		return nil
	}
	vs := make([]any, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		vs = append(vs, d.Value())
	}
	d.Unnest()
	return vs
}

// Value reads one tagged value.
func (d *Decoder) Value() any {
	switch tag := d.byte(); tag {
	case tagNil:
		return nil
	case tagBool:
		return d.Bool()
	case tagInt:
		return d.Int()
	case tagInt64:
		return d.varint()
	case tagUint64:
		return d.uvarint()
	case tagFloat64:
		return d.Float64()
	case tagString:
		return d.str()
	case tagFloat64s:
		return d.Float64s()
	case tagFloat64Rows:
		n, isNil := d.sliceLen(1)
		if isNil {
			return [][]float64(nil)
		}
		rows := make([][]float64, 0, prealloc(n))
		for i := 0; i < n && d.err == nil; i++ {
			rows = append(rows, d.Float64s())
		}
		return rows
	case tagInts:
		return d.Ints()
	case tagBools:
		n, isNil := d.sliceLen(1)
		if isNil {
			return []bool(nil)
		}
		bs := make([]bool, n)
		for i := 0; i < n && d.err == nil; i++ {
			bs[i] = d.Bool()
		}
		return bs
	case tagStrings:
		n, isNil := d.sliceLen(1)
		if isNil {
			return []string(nil)
		}
		ss := make([]string, 0, prealloc(n))
		for i := 0; i < n && d.err == nil; i++ {
			ss = append(ss, d.str())
		}
		return ss
	case tagAnys:
		return d.anys()
	case tagDense:
		return d.Dense()
	case tagNilDense:
		return (*mat.Dense)(nil)
	case tagValueRef:
		return d.ref()
	case tagRefValue:
		if !d.Nest() {
			return nil
		}
		rv := RefValue{Ref: d.ref(), Val: d.Value()}
		d.Unnest()
		return rv
	case tagPeerRef:
		return PeerRef{Ref: d.ref(), Addr: d.str(), Token: d.str()}
	case tagNamed:
		name := d.str()
		if d.err != nil {
			return nil
		}
		regMu.RLock()
		c := codecByName[name]
		regMu.RUnlock()
		if c == nil {
			d.Fail(fmt.Errorf("no codec registered for %q", name))
			return nil
		}
		return c.dec(d)
	case tagFallback:
		b := make([]byte, d.Len(1))
		d.readFull(b)
		if d.err != nil {
			return nil
		}
		v, err := decodeFallback(b)
		if err != nil {
			d.Fail(err)
		}
		return v
	default:
		d.Fail(fmt.Errorf("unknown value tag %d", tag))
		return nil
	}
}
