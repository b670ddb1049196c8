package exec_test

// The value codec and the frame format against every type that crosses the
// wire: a round trip keeps every bit, agrees with what gob used to deliver,
// and re-encodes to the same bytes; arbitrary bytes cost an error.

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"taskml/internal/core"
	"taskml/internal/exec"
	"taskml/internal/forest"
	"taskml/internal/mat"
)

// unregistered has neither a built-in tag nor a codec: it cannot cross.
type unregistered struct{ A int }

func init() {
	exec.Register("test_return_unregistered", func(args []any) (any, error) {
		return unregistered{A: 1}, nil
	})

	// The reference path of the differential test: what the wire used to be.
	// Nothing outside this file uses gob.
	for _, v := range []any{
		&mat.Dense{}, []any{}, [][]float64{}, []string{}, []bool{},
		exec.ValueRef{}, exec.RefValue{},
		&forest.TrainSet{}, &forest.SplitOut{}, &forest.Node{}, forest.TreeParams{},
		&core.ServeModel{},
	} {
		gob.Register(v)
	}
}

// oddFloats are the values a float codec gets wrong first.
var oddFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, math.Pi,
	math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff0000000abcdef), // NaN payloads
	math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(1), // denormals
	math.MaxFloat64,
}

// negZeroSplit thresholds at −0, which gob never delivered: it omits
// zero-valued struct fields, −0 == 0, and the field came back +0.
var negZeroSplit = &forest.Node{Feature: 3, Threshold: math.Copysign(0, -1), Left: &forest.Node{Leaf: true, Probs: []float64{1, 0}}}

func deepTree(depth int) *forest.Node {
	if depth == 0 {
		return &forest.Node{Leaf: true, Probs: []float64{0.25, 0.75}}
	}
	return &forest.Node{Feature: depth, Threshold: float64(depth) + 0.5, Left: deepTree(depth - 1), Right: deepTree(depth - 1)}
}

// corpus is one value of every shape that travels in Args/Vals/Val.
func corpus() []any {
	dense := mat.New(3, len(oddFloats))
	for r := 0; r < dense.Rows; r++ {
		copy(dense.Row(r), oddFloats)
	}
	ref := exec.ValueRef{Session: 1 << 40, Task: 12345, Out: 2}
	leaf := &forest.Node{Leaf: true, Probs: []float64{1, 0}}
	chain := &forest.Node{Feature: 3, Threshold: -2.5, Left: leaf}
	trainX := mat.New(6, len(oddFloats))
	for r := 0; r < trainX.Rows; r++ {
		copy(trainX.Row(r), oddFloats)
	}
	train := mustTrainSet(trainX, []int{0, 1, 1, 0, -7, 1 << 40})
	return []any{
		nil, true, false, 0, -1, math.MaxInt, math.MinInt, int64(-1 << 62), uint64(math.MaxUint64),
		math.Float64frombits(0x7ff8000000000001), math.Copysign(0, -1), "", "héllo\x00wire",
		oddFloats, []float64(nil), []float64{},
		[][]float64{oddFloats, nil, {}}, [][]float64(nil), [][]float64{},
		[]int{0, -1, 1, 63, 64, -65, 799, 1 << 50, math.MinInt}, []int(nil), []int{},
		[]bool{true, false, true}, []bool(nil), []bool{},
		[]string{"a", "", "ccc"}, []string(nil), []string{},
		[]any(nil), []any{},
		dense, &mat.Dense{}, (*mat.Dense)(nil), mat.New(0, 5), mat.New(5, 0), mat.New(1, 1),
		ref, exec.RefValue{Ref: ref, Val: dense}, exec.RefValue{Ref: ref},
		[]any{1.5, ref, exec.RefValue{Ref: ref, Val: []int{1, 2}},
			[]any{oddFloats, []any{"deep", nil}}, dense, leaf},
		leaf, chain, negZeroSplit, deepTree(7), (*forest.Node)(nil), &forest.Node{},
		train, mustTrainSet(mat.NewFromRows([][]float64{{math.NaN()}, {math.NaN()}}), []int{0, 1}),
		mustTrainSet(mat.New(0, 4), []int{}), (*forest.TrainSet)(nil),
		&forest.SplitOut{Leaf: leaf},
		&forest.SplitOut{Split: forest.Split{Found: true, Feature: 9, Threshold: -0.125, Left: []int{1, 5, 9}, Right: []int{0, 2}}},
		&forest.SplitOut{}, (*forest.SplitOut)(nil),
		forest.TreeParams{MaxDepth: 6, MinSamplesSplit: 2, MaxFeatures: 11}, forest.TreeParams{},
		&core.ServeModel{Feat: core.FeatureConfig{PadSec: 20, Window: 512, MaxFreqHz: 30, TimePool: 1}, Trees: []*forest.Node{deepTree(3), leaf}},
		&core.ServeModel{}, &core.ServeModel{Trees: []*forest.Node{}}, (*core.ServeModel)(nil),
		// The forms a value takes crossing between workers: the zero reference,
		// a re-shipped slice and split, and a []*Future argument with one
		// element re-shipped and one resident on the target.
		exec.ValueRef{}, exec.RefValue{Ref: ref, Val: oddFloats}, exec.RefValue{Ref: ref, Val: &forest.SplitOut{Leaf: leaf}},
		[]any{exec.RefValue{Ref: ref, Val: mat.New(0, 3)}, ref, 2.0},
	}
}

// mustTrainSet is forest.NewTrainSet for values known to be well formed.
func mustTrainSet(x *mat.Dense, y []int) *forest.TrainSet {
	ts, err := forest.NewTrainSet(x, y)
	if err != nil {
		panic(err)
	}
	return ts
}

// sameBits is reflect.DeepEqual with floats compared by their bits — NaN
// equals the same NaN, 0 differs from −0. With nilIsEmpty a nil slice equals
// an empty one, which is all gob ever preserved.
func sameBits(a, b reflect.Value, nilIsEmpty bool) bool {
	if a.IsValid() != b.IsValid() {
		return false
	}
	if !a.IsValid() {
		return true
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64, reflect.Float32:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int() // unexported fields cannot Interface()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Interface, reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem(), nilIsEmpty)
	case reflect.Slice:
		if a.Len() != b.Len() || (!nilIsEmpty && a.IsNil() != b.IsNil()) {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i), nilIsEmpty) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i), nilIsEmpty) {
				return false
			}
		}
		return true
	default:
		return reflect.DeepEqual(a.Interface(), b.Interface())
	}
}

func equalBits(a, b any, nilIsEmpty bool) bool {
	return sameBits(reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem(), nilIsEmpty)
}

// TestWireRoundTripBitIdentical: every wire type survives encode→decode
// with every bit in place, the decoded value re-encodes to the same bytes,
// and — where gob could carry the value at all — it equals what the gob
// path decoded.
func TestWireRoundTripBitIdentical(t *testing.T) {
	for i, v := range corpus() {
		enc, err := exec.EncodeValue(v)
		if err != nil {
			t.Fatalf("corpus[%d] %T: encode: %v", i, v, err)
		}
		got, err := exec.DecodeValue(enc)
		if err != nil {
			t.Fatalf("corpus[%d] %T: decode: %v", i, v, err)
		}
		if !equalBits(v, got, false) {
			t.Fatalf("corpus[%d] %T: decoded %#v, want %#v", i, v, got, v)
		}
		if again, err := exec.EncodeValue(got); err != nil || !bytes.Equal(again, enc) {
			t.Fatalf("corpus[%d] %T: re-encoding the decoded value gave different bytes (err %v)", i, v, err)
		}

		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&v); err != nil || v == any(negZeroSplit) {
			continue // nil pointers, bare nil and −0 fields never could cross as gob
		}
		var viaGob any
		if err := gob.NewDecoder(&buf).Decode(&viaGob); err != nil {
			t.Fatalf("corpus[%d] %T: gob reference path: %v", i, v, err)
		}
		if ts, ok := viaGob.(*forest.TrainSet); ok { // gob carries X and Y; the ranks follow from them
			viaGob = mustTrainSet(ts.X, ts.Y)
		}
		if !equalBits(viaGob, got, true) {
			t.Fatalf("corpus[%d] %T: codec decoded %#v, gob decoded %#v", i, v, got, viaGob)
		}
	}
}

// TestHostileTrainSetShape: a training set whose label count is not its row
// count encodes — the encoder trusts its caller — but no decoder accepts it,
// alone or inside a frame of any kind.
func TestHostileTrainSetShape(t *testing.T) {
	bad := &forest.TrainSet{X: mat.New(3, 2), Y: make([]int, 6)}
	enc, err := exec.EncodeValue(bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := exec.DecodeValue(enc); err == nil || !strings.Contains(err.Error(), "6 labels for 3 rows") {
		t.Fatalf("decoding 6 labels for 3 rows: err %v, want the shape refused", err)
	}
	carriers := 0
	for i, f := range exec.SampleFrames([]any{bad}) {
		if !bytes.Contains(f, enc) {
			continue // a frame kind that carries no values
		}
		carriers++
		if _, _, err := exec.RecodeFrame(f, 1<<30); err == nil {
			t.Fatalf("frame %d carrying 6 labels for 3 rows decoded", i)
		}
	}
	if carriers == 0 {
		t.Fatal("no sample frame carries the value")
	}
}

// TestWireFramesRoundTrip: a frame of every kind re-encodes to itself.
func TestWireFramesRoundTrip(t *testing.T) {
	for i, f := range exec.SampleFrames(corpus()) {
		again, n, err := exec.RecodeFrame(f, 1<<30)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if n != len(f) || !bytes.Equal(again, f) {
			t.Fatalf("frame %d: %d bytes re-encoded to %d different ones", i, len(f), len(again))
		}
	}
}

// TestWireRefusesUnregisteredType: a type with neither a built-in tag nor a
// RegisterCodec has no wire form. It is refused at encode with an error that
// names RegisterCodec, and through real worker processes it costs its
// attempt an error in either direction — never the worker, never a hang.
func TestWireRefusesUnregisteredType(t *testing.T) {
	if _, err := exec.EncodeValue([]any{1.0, unregistered{}}); err == nil || !strings.Contains(err.Error(), "RegisterCodec") {
		t.Fatalf("encoding an unregistered type: err %v, want a refusal naming RegisterCodec", err)
	}
	r, err := exec.SpawnLoopback(exec.LoopbackConfig{Workers: 1, Slots: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, _, err := r.Execute("test_add", 1, []any{unregistered{}, 1.0}); err == nil || !strings.Contains(err.Error(), "RegisterCodec") {
		t.Fatalf("an argument with no wire form must fail its attempt naming RegisterCodec, got %v", err)
	}
	if _, _, err := r.Execute("test_return_unregistered", 1, nil); err == nil || !strings.Contains(err.Error(), "RegisterCodec") {
		t.Fatalf("an output with no wire form must come back as an error reply naming RegisterCodec, got %v", err)
	}
	if n := r.AliveWorkers(); n != 1 {
		t.Fatalf("AliveWorkers = %d after unencodable values, want 1 (they must not cost the connection)", n)
	}
	if _, _, err := r.Execute("test_add", 1, []any{1.0, 2.0}); err != nil {
		t.Fatalf("worker unusable after unencodable values: %v", err)
	}
	if st := r.Stats(); st.Dispatched != st.Completed+st.Failed || st.Failed != 1 {
		t.Fatalf("Stats = %+v, want the refused send counted Failed and the partition intact", st)
	}
}

// TestRegisterCodecRefusesBuiltinType: a type that already has a wire form
// cannot get a second one. Registering []int panics and changes nothing: the
// built-in form stays the only one, and the named form a codec would have
// read is still refused at decode.
func TestRegisterCodecRefusesBuiltinType(t *testing.T) {
	func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "duplicate codec for []int") {
				t.Fatalf("RegisterCodec[[]int] recovered %v, want a duplicate-codec panic", r)
			}
		}()
		exec.RegisterCodec((*exec.Encoder).Ints, (*exec.Decoder).Ints, nil)
	}()
	builtin, err := exec.EncodeValue([]int{1})
	if err != nil || len(builtin) != 3 {
		t.Fatalf("[]int{1} encodes to %x (err %v), want its 3-byte built-in form", builtin, err)
	}
	named, err := exec.EncodeValue(forest.TreeParams{}) // its first byte is the named tag
	if err != nil {
		t.Fatal(err)
	}
	named = append(append([]byte{named[0], byte(len("[]int"))}, "[]int"...), builtin[1:]...)
	if v, err := exec.DecodeValue(named); err == nil {
		t.Fatalf("a named []int decoded to %#v: a second wire form of one value", v)
	}
}

// fuzzFrameBound is the frame bound the fuzzers decode under: small enough
// that a decoder allocating what a length claims shows up at once.
const fuzzFrameBound = 1 << 16

// allocatedBy returns the bytes fn allocated.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBudget is what decoding (and re-encoding) b may allocate: one frame
// bound for a bulk payload claimed and not delivered, the fixed buffers, and
// a small multiple of the bytes really present (a one-byte element can
// become a sixteen-byte interface, and slices grow by doubling).
func allocBudget(b []byte) uint64 {
	return fuzzFrameBound + 1<<20 + 96*uint64(len(b))
}

// FuzzDecodeValue: arbitrary bytes never panic the value decoder, never make
// it allocate beyond its budget, and whatever decodes re-encodes to the same
// bytes.
func FuzzDecodeValue(f *testing.F) {
	for _, v := range corpus() {
		if b, err := exec.EncodeValue(v); err == nil && len(b) < fuzzFrameBound {
			f.Add(b)
		}
	}
	f.Add([]byte{7, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // []float64 of 2^63 elements
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > fuzzFrameBound {
			return
		}
		var v any
		var err error
		if got, budget := allocatedBy(func() { v, err = exec.DecodeValue(b) }), allocBudget(b); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(b), got, budget)
		}
		if err != nil {
			return
		}
		again, err := exec.EncodeValue(v)
		if err != nil || !bytes.Equal(again, b) {
			t.Fatalf("decoded %T re-encodes to different bytes (err %v):\n in  %x\n out %x", v, err, b, again)
		}
	})
}

// FuzzDecodeFrame is FuzzDecodeValue for whole frames of every kind,
// prefix and envelope included.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range exec.SampleFrames(corpus()[:20]) {
		f.Add(fr)
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 3, 1})           // a length prefix of 4 GiB
	f.Add([]byte{9, 0, 0, 0, 3, 1, 2, 13, 0xff, 0xff, 3}) // a response whose one value, a matrix, claims 65535 rows
	f.Add([]byte{4, 0, 0, 0, 5, 0xff, 0xff, 3})           // a forget that claims 65535 sessions
	f.Fuzz(func(t *testing.T, b []byte) {
		var again []byte
		var n int
		var err error
		if got, budget := allocatedBy(func() { again, n, err = exec.RecodeFrame(b, fuzzFrameBound) }), allocBudget(b); got > budget {
			t.Fatalf("decoding %d bytes allocated %d, budget %d", len(b), got, budget)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(again, b[:n]) {
			t.Fatalf("frame re-encodes to different bytes:\n in  %x\n out %x", b[:n], again)
		}
	})
}

func benchWire(b *testing.B, v any, payloadBytes int) {
	p := exec.NewPipe()
	b.SetBytes(int64(payloadBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RoundTrip(v); err != nil {
			b.Fatal(err)
		}
	}
}

func filled(rows, cols int) *mat.Dense {
	m := mat.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = 0.1 * float64(i)
	}
	return m
}

// BenchmarkWireDense300x256 is one Gram row block through a connection's
// encoder and decoder: the bulk path, whose cost should be the bytes.
func BenchmarkWireDense300x256(b *testing.B) {
	m := filled(300, 256)
	benchWire(b, m, 8*len(m.Data))
}

// BenchmarkWireTrainSet800x115 is the gathered training set every forest
// task of a cross-validation fold refers to.
func BenchmarkWireTrainSet800x115(b *testing.B) {
	y := make([]int, 800)
	for i := range y {
		y[i] = i & 1
	}
	ts := mustTrainSet(filled(800, 115), y)
	benchWire(b, ts, 8*len(ts.X.Data)+8*len(ts.Y))
}

// TestWireDenseRoundTripAllocs: a matrix crosses a connection's encoder and
// decoder with two allocations, its decoded data and the Dense around it —
// nothing per value on the way out, nothing boxed on the way in.
func TestWireDenseRoundTripAllocs(t *testing.T) {
	p, m := exec.NewPipe(), filled(300, 256)
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := p.RoundTrip(m); err != nil {
			t.Fatal(err)
		}
	}); allocs > 2 {
		t.Fatalf("a 300x256 round trip allocates %v times, want at most 2", allocs)
	}
}
