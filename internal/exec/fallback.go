package exec

import (
	"bytes"
	"encoding/gob"
)

// The per-value gob fallback: a type nobody wrote a codec for still crosses
// the wire, as one self-contained gob stream behind tagFallback (codec.go).
// It pays gob's type descriptors on every value and a staging buffer on
// both ends, which is why every type on a hot path has a codec instead.
// This is the only file of the package that imports encoding/gob.

// RegisterType makes a concrete type transmissible as a task argument or
// result through the gob fallback (a gob.Register passthrough). The
// built-in wire vocabulary — scalars, string, the numeric, bool, string and
// any slices, *mat.Dense — and every RegisterCodec type need no
// registration; gob itself knows the remaining basic types.
func RegisterType(v any) { gob.Register(v) }

func encodeFallback(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeFallback(b []byte) (any, error) {
	var v any
	err := gob.NewDecoder(bytes.NewReader(b)).Decode(&v)
	return v, err
}
