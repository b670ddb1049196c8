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

// The value codec: how everything inside request.Args and response.Vals is
// laid out in a frame (wire.go). One tag byte, then a body that depends on
// the tag. The vocabulary is one table with a row per type that can cross:
// the built-in kinds, added in tag order by the init below (each row's
// comment is its body; DESIGN.md's value-tag table lists the same rows), and
// the RegisterCodec types, which travel under tagNamed as their type name
// string and then the body their enc wrote. A row also gives a value's
// resident size, which is what admits it to the worker cache (cache.go).
// nil and a nil *mat.Dense are their tag alone.
//
// Float bits are copied, never converted, so NaN payloads and −0 cross
// unchanged; []int stays varint because row-index slices would quadruple as
// raw int64. Every encoding is canonical (minimal varints, 0/1 bools, no
// trailing bytes), so a frame that decodes re-encodes to the same bytes. A
// value of any other type has no wire form: it is refused at encode.
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
	tagNamed
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

// row is one type of the wire vocabulary: how a value of it is written,
// read back and sized.
type row struct {
	tag  byte   // tagNamed for a RegisterCodec type
	name string // the Go type name, which a tagNamed value travels under
	enc  func(*Encoder, any)
	dec  func(*Decoder) any
	size func(any) int64 // resident bytes; nil: never cached
}

// table holds every row, found by Go type on encode and by tag — then by
// name, for tagNamed — on decode. regMu guards the maps; byTag is filled by
// this file's init alone and read without it.
var table = struct {
	byType map[reflect.Type]*row
	byTag  [tagNamed]*row
	byName map[string]*row // the tagNamed rows
}{byType: map[reflect.Type]*row{}, byName: map[string]*row{}}

// addRow puts T's row in the table under tag. A type that already has a
// row, or a name another tagNamed row travels under, panics and leaves the
// table as it was: one value, one wire form.
func addRow[T any](tag byte, enc func(*Encoder, T), dec func(*Decoder) T, size func(T) int64) {
	t := reflect.TypeOf((*T)(nil)).Elem()
	r := &row{
		tag:  tag,
		name: t.String(),
		enc:  func(e *Encoder, v any) { enc(e, v.(T)) },
		dec:  func(d *Decoder) any { return dec(d) },
	}
	if size != nil {
		r.size = func(v any) int64 { return size(v.(T)) }
	}
	regMu.Lock()
	defer regMu.Unlock()
	if table.byType[t] != nil || tag == tagNamed && table.byName[r.name] != nil {
		panic(fmt.Sprintf("exec: duplicate codec for %s", r.name))
	}
	table.byType[t] = r
	if tag == tagNamed {
		table.byName[r.name] = r
	} else {
		table.byTag[tag] = r
	}
}

// rowOf returns the row of v's type, or nil when v has no wire form.
func rowOf(v any) *row {
	regMu.RLock()
	defer regMu.RUnlock()
	return table.byType[reflect.TypeOf(v)]
}

// word is the resident size of a scalar.
func word[T any](T) int64 { return 8 }

// listSize sizes a slice by its elements: 8 for the slice, plus each
// element's size. One unsized element (0) leaves the whole unsized.
func listSize[E any](elem func(E) int64) func([]E) int64 {
	return func(s []E) int64 {
		n := int64(8)
		for _, x := range s {
			en := elem(x)
			if en <= 0 {
				return 0
			}
			n += en
		}
		return n
	}
}

// The built-in rows, in tag order; the comment on each is its body.
func init() {
	addRow(tagBool, (*Encoder).Bool, (*Decoder).Bool, word[bool])             // 1 byte, 0 or 1
	addRow(tagInt, (*Encoder).Int, (*Decoder).Int, word[int])                 // zigzag varint
	addRow(tagInt64, (*Encoder).varint, (*Decoder).varint, word[int64])       // zigzag varint
	addRow(tagUint64, (*Encoder).uvarint, (*Decoder).uvarint, word[uint64])   // uvarint
	addRow(tagFloat64, (*Encoder).Float64, (*Decoder).Float64, word[float64]) // 8 bytes, little-endian IEEE bits
	strSize := func(s string) int64 { return int64(len(s)) + 16 }
	addRow(tagString, (*Encoder).str, (*Decoder).str, strSize) // uvarint length, bytes
	// length+1 (0 = nil), 8 raw bytes per element
	addRow(tagFloat64s, (*Encoder).Float64s, (*Decoder).Float64s, func(s []float64) int64 { return int64(len(s))*8 + 8 })
	// length+1, each row as a []float64 body
	addRow(tagFloat64Rows, func(e *Encoder, s [][]float64) { encList(e, s, (*Encoder).Float64s) },
		func(d *Decoder) [][]float64 { return decList(d, 1, (*Decoder).Float64s) },
		listSize(func(r []float64) int64 { return int64(len(r))*8 + 24 }))
	// length+1, one zigzag varint per element
	addRow(tagInts, (*Encoder).Ints, (*Decoder).Ints, func(s []int) int64 { return int64(len(s))*8 + 8 })
	// length+1, one byte per element
	addRow(tagBools, func(e *Encoder, s []bool) { encList(e, s, (*Encoder).Bool) },
		func(d *Decoder) []bool { return decList(d, 1, (*Decoder).Bool) },
		func(s []bool) int64 { return int64(len(s)) + 8 })
	// length+1, each as a string body
	addRow(tagStrings, func(e *Encoder, s []string) { encList(e, s, (*Encoder).str) },
		func(d *Decoder) []string { return decList(d, 1, (*Decoder).str) },
		listSize(strSize))
	addRow(tagAnys, (*Encoder).anys, (*Decoder).anys, listSize(sizeOfValue)) // length+1, each as a tagged value
	// rows, cols, then Data as a []float64 body
	addRow(tagDense, (*Encoder).Dense, (*Decoder).Dense, func(m *mat.Dense) int64 {
		if m == nil {
			return 0 // a nil matrix is never cached
		}
		return int64(len(m.Data))*8 + 16
	})
	addRow(tagValueRef, (*Encoder).ref, (*Decoder).ref, nil) // session uvarint, task varint, out varint
	// a ValueRef body, then a tagged value
	addRow(tagRefValue, func(e *Encoder, rv RefValue) { e.ref(rv.Ref); e.Value(rv.Val) },
		func(d *Decoder) (rv RefValue) {
			if d.Nest() {
				rv = RefValue{Ref: d.ref(), Val: d.Value()}
				d.Unnest()
			}
			return rv
		}, nil)
}

// encList writes s as length+1 (0 = nil), so nil and empty stay apart, then
// each element with enc.
func encList[E any](e *Encoder, s []E, enc func(*Encoder, E)) {
	e.sliceLen(len(s), s == nil)
	for _, x := range s {
		enc(e, x)
	}
}

// decList reads what encList wrote, each element at least minBytes long on
// the wire.
func decList[E any](d *Decoder, minBytes int, dec func(*Decoder) E) []E {
	n, isNil := d.sliceLen(minBytes)
	if isNil || d.err != nil {
		return nil
	}
	return decEach(d, n, dec)
}

// encCount writes s as a plain count, where nil and empty are one value,
// then each element with enc.
func encCount[E any](e *Encoder, s []E, enc func(*Encoder, E)) {
	e.Len(len(s))
	for _, x := range s {
		enc(e, x)
	}
}

// decCount reads what encCount wrote, nil for a count of 0.
func decCount[E any](d *Decoder, minBytes int, dec func(*Decoder) E) []E {
	if n := d.Len(minBytes); n > 0 {
		return decEach(d, n, dec)
	}
	return nil
}

// decEach reads n elements with dec, stopping at the first error.
func decEach[E any](d *Decoder, n int, dec func(*Decoder) E) []E {
	s := make([]E, 0, prealloc(n))
	for i := 0; i < n && d.err == nil; i++ {
		s = append(s, dec(d))
	}
	return s
}

// RegisterCodec gives T a hand-written binary wire form: enc writes a value
// with the Encoder's methods and dec reads it back in the same order. The
// type travels under its Go name ("*forest.TrainSet"), so both ends must
// link the registering package — which holds whenever they can run the same
// task bodies. dec reports malformed input through Decoder.Fail (the
// Decoder's own methods do so themselves) and must check a length with
// Decoder.Len before allocating from it. size reports a value's resident
// bytes, which is what admits it to the worker future cache; with a nil
// size the type is never cached and re-ships by value every time. A type
// with neither a built-in tag nor a codec cannot cross the wire at all.
//
// Call it from the init that registers the bodies using T; like Register it
// panics on a duplicate, and so it does for a type that has a built-in tag.
func RegisterCodec[T any](enc func(*Encoder, T), dec func(*Decoder) T, size func(T) int64) {
	addRow(tagNamed, enc, dec, size)
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
}

// errEncode marks a frame refused before any byte of it was written: the
// connection is still in step and the caller may send something else.
var errEncode = errors.New("exec: value cannot be encoded")

// size runs body as the counting pass and returns the bytes it will write.
func (e *Encoder) size(body func(*Encoder)) (int, error) {
	e.w, e.n, e.err = nil, 0, nil
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
	e.w, e.n = w, 0
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
	if !isNil {
		n++
	}
	e.uvarint(uint64(n))
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

// Float64s writes s, nil-ness included, copying the bits of every element:
// on a little-endian host straight from its backing array.
func (e *Encoder) Float64s(s []float64) {
	if !hostLittleEndian {
		encList(e, s, (*Encoder).Float64)
		return
	}
	e.sliceLen(len(s), s == nil)
	e.write(float64Bytes(s))
}

// Ints writes s, nil-ness included, one varint per element.
func (e *Encoder) Ints(s []int) { encList(e, s, (*Encoder).Int) }

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

func (e *Encoder) anys(vs []any) { encList(e, vs, (*Encoder).Value) }

// Value writes v behind its tag — its row's, or tagNamed and its type name
// for a RegisterCodec type. A value with no row fails the frame before a
// byte of it is written.
func (e *Encoder) Value(v any) {
	switch x := v.(type) {
	case nil:
		e.byte(tagNil)
		return
	case *mat.Dense:
		if x == nil {
			e.byte(tagNilDense)
			return
		}
	}
	r := rowOf(v)
	if r == nil {
		e.fail(fmt.Errorf("%T has no wire form: give it one with exec.RegisterCodec", v))
		return
	}
	e.byte(r.tag)
	if r.tag == tagNamed {
		e.str(r.name)
	}
	r.enc(e, v)
}

// Decoder reads wire values out of one frame. It never trusts a length: a
// count is checked against the bytes the frame has left before anything is
// allocated from it, and the frame itself is bounded (wire.go), so a corrupt
// or hostile sender costs an error, not memory. The first error sticks; every
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
// the sender really sent.
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
func (d *Decoder) Ints() []int { return decList(d, 1, (*Decoder).Int) }

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

// anys reads a []any body; its elements sit one nesting level deeper.
func (d *Decoder) anys() []any {
	n, isNil := d.sliceLen(1)
	if isNil || !d.Nest() {
		return nil
	}
	defer d.Unnest()
	return decEach(d, n, (*Decoder).Value)
}

// Value reads one tagged value: the row of its tag, or of the type name
// that follows tagNamed, reads the body.
func (d *Decoder) Value() any {
	switch tag := d.byte(); {
	case tag == tagNil:
		return nil
	case tag == tagNilDense:
		return (*mat.Dense)(nil)
	case tag == tagNamed:
		name := d.str()
		regMu.RLock()
		r := table.byName[name]
		regMu.RUnlock()
		if r == nil {
			d.Fail(fmt.Errorf("no codec registered for %q", name)) // a name that failed to read keeps its own error
			return nil
		}
		return r.dec(d)
	case tag < tagNamed && table.byTag[tag] != nil:
		return table.byTag[tag].dec(d)
	default:
		d.Fail(fmt.Errorf("unknown value tag %d", tag))
		return nil
	}
}
