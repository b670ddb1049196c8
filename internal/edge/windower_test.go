package edge

import (
	"math/rand"
	"reflect"
	"testing"
)

// appendWindower is the Windower before it compacted in place — the
// reference the in-place one must agree with: it re-slices past every stride
// and lets append re-grow the array.
type appendWindower struct {
	buf             []float64
	consumed        int
	winLen, strideN int
}

func (w *appendWindower) push(s ...float64) { w.buf = append(w.buf, s...) }

func (w *appendWindower) peek() ([]float64, int, bool) {
	if len(w.buf) < w.winLen {
		return nil, 0, false
	}
	return w.buf[:w.winLen:w.winLen], w.consumed + w.winLen, true
}

func (w *appendWindower) advance() {
	if len(w.buf) < w.winLen {
		return
	}
	w.buf = w.buf[w.strideN:]
	w.consumed += w.strideN
}

// TestWindowerCompactsInPlace: under 10⁵ pushes of mixed sizes the windower
// cuts the same windows as the append-based reference, its backing array
// never outgrows a window plus the largest push while every complete window
// is taken, and a view stays intact until the next Push.
func TestWindowerCompactsInPlace(t *testing.T) {
	const winLen, stride = 50, 13
	rng := rand.New(rand.NewSource(29))
	pushSize := func() int {
		if rng.Intn(50) == 0 {
			return 50 + rng.Intn(150) // now and then more than a window at once
		}
		return rng.Intn(20)
	}
	for _, tc := range []struct {
		name   string
		pushes int
		drain  bool // take every complete window after each push
	}{
		{"drained", 100000, true},
		{"one window a push at most", 10000, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := NewWindower(winLen, stride)
			if err != nil {
				t.Fatal(err)
			}
			ref := &appendWindower{winLen: winLen, strideN: stride}
			next, largest := 0.0, 0
			for i := 0; i < tc.pushes; i++ {
				s := make([]float64, pushSize())
				for j := range s {
					s[j] = next
					next++
				}
				largest = max(largest, len(s))
				w.Push(s...)
				ref.push(s...)
				for {
					view, end, ok := w.Peek()
					rview, rend, rok := ref.peek()
					if ok != rok || end != rend || !reflect.DeepEqual(view, rview) {
						t.Fatalf("push %d: Peek = %d samples ending %d (%t), reference %d ending %d (%t)",
							i, len(view), end, ok, len(rview), rend, rok)
					}
					if !ok {
						break
					}
					kept := append([]float64(nil), view...)
					w.Advance()
					ref.advance()
					if !reflect.DeepEqual(view, kept) {
						t.Fatalf("push %d: Advance changed the view Peek returned", i)
					}
					if len(w.buf) != len(ref.buf) {
						t.Fatalf("push %d: %d samples buffered, reference %d", i, len(w.buf), len(ref.buf))
					}
					if !tc.drain {
						break
					}
				}
				if tc.drain && cap(w.mem) > winLen+largest {
					t.Fatalf("push %d: backing array of %d samples, want <= window %d + largest push %d",
						i, cap(w.mem), winLen, largest)
				}
			}
		})
	}
}
