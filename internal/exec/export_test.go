package exec

import (
	"bufio"
	"bytes"
	"fmt"
)

// Hooks for the external tests (package exec_test), which import the domain
// packages — forest, core — that package exec itself cannot.

// ProtoVersion is the protocol version both hellos carry.
const ProtoVersion = protoVersion

// EncodeValue returns the tagged wire form of v.
func EncodeValue(v any) ([]byte, error) {
	var e Encoder
	body := func(e *Encoder) { e.Value(v) }
	if _, err := e.size(body); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	if err := e.emit(w, body); err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// DecodeValue decodes one tagged value that must fill b exactly.
func DecodeValue(b []byte) (any, error) {
	d := Decoder{r: bufio.NewReader(bytes.NewReader(b)), rem: len(b)}
	v := d.Value()
	if d.err != nil {
		return nil, d.err
	}
	if d.rem != 0 {
		return nil, fmt.Errorf("%d trailing bytes", d.rem)
	}
	return v, nil
}

// HasCodec reports whether v's own type encodes natively rather than through
// the gob fallback (it does not look inside containers).
func HasCodec(v any) bool {
	b, err := EncodeValue(v)
	return err == nil && b[0] != tagFallback
}

// SampleFrames returns one encoded frame of every kind, the request and
// response carrying vals.
func SampleFrames(vals []any) [][]byte {
	ref := ValueRef{Session: 3, Task: 7, Out: 1}
	frames := []frame{
		&hello{Proto: protoVersion, Pid: 4242, Slots: 2, Token: "join", PeerAddr: "127.0.0.1:9", PeerToken: "peer", Caches: true},
		&request{ID: 9, Name: "rf_split", NOut: 3, Args: vals, Session: 3, Task: 8, Store: true},
		&request{ID: 10, Name: "anonymous", NOut: 1, Task: -1},
		&response{ID: 9, Vals: vals, Stored: []StoredRef{{Ref: ref, Bytes: 4096}}, Evicted: []ValueRef{ref},
			CacheBytes: 1 << 20, RefHits: 2, RefMisses: 1, PeerFetched: 1, PeerValBytes: 512, PeerSent: 40, PeerRecv: 600},
		&response{ID: 11, Err: "rf_split: deliberate failure", Miss: []ValueRef{ref, {Session: 3, Task: 2}}},
		// A chain: the head, a member naming the head's output by its bare
		// reference, a member carrying values; and the three replies, the
		// middle one a Miss.
		&request{ID: 12, Name: "rf_bootstrap", NOut: 1, Args: vals, Session: 3, Task: 20, Store: true, Chain: []request{
			{Name: "rf_split", NOut: 3, Args: []any{ValueRef{Session: 3, Task: 20}, int64(7)}, Session: 3, Task: 21, Store: true},
			{Name: "rf_join", NOut: 1, Args: vals, Session: 3, Task: 22, Store: true},
		}},
		&response{ID: 12, Vals: vals, Stored: []StoredRef{{Ref: ref, Bytes: 64}}, Evicted: []ValueRef{ref}, CacheBytes: 1 << 10, BodyNs: 427000, Chain: []response{
			{Miss: []ValueRef{{Session: 3, Task: 20}}, RefMisses: 1, BodyNs: 900},
			{Vals: vals, Stored: []StoredRef{{Ref: ValueRef{Session: 3, Task: 22}, Bytes: 128}}, RefHits: 2, PeerFetched: 1, PeerValBytes: 512, BodyNs: 31000},
		}},
		// A held reply — no values, the Stored report of each output — a pull
		// for two refs, and its reply: one value, one Miss.
		&request{ID: 13, Name: "rf_join", NOut: 1, Args: vals, Session: 3, Task: 23, Store: true, Hold: true},
		&response{ID: 13, Stored: []StoredRef{{Ref: ValueRef{Session: 3, Task: 23}, Bytes: 2048}}, BodyNs: 1200},
		&pull{ID: 14, Refs: []ValueRef{ref, {Session: 3, Task: 23}}},
		&response{ID: 14, Vals: []any{vals, nil}, Miss: []ValueRef{{Session: 3, Task: 23}}},
		// Two sessions that ended together, and a frame of none.
		&forget{Sessions: []uint64{3, 1 << 40}},
		&forget{},
		&peerHello{Proto: protoVersion, Token: "peer"},
		&peerRequest{ID: 5, Ref: ref},
		&peerResponse{ID: 5, OK: true, Val: vals},
		&peerResponse{ID: 6},
	}
	out := make([][]byte, len(frames))
	for i, f := range frames {
		var buf bytes.Buffer
		l := &link{w: bufio.NewWriter(&buf), maxFrame: maxFrameBytes}
		if _, err := l.send(f); err != nil {
			panic(err)
		}
		out[i] = buf.Bytes()
	}
	return out
}

// RecodeFrame decodes the frame at the head of b, whatever its kind, under
// the given frame bound, and returns it re-encoded together with the number
// of bytes of b it occupied.
func RecodeFrame(b []byte, maxFrame int) (reencoded []byte, n int, err error) {
	if len(b) < 5 {
		return nil, 0, fmt.Errorf("short frame")
	}
	var f frame
	switch b[4] {
	case kindHello:
		f = &hello{}
	case kindRequest:
		f = &request{}
	case kindResponse:
		f = &response{}
	case kindPeerHello:
		f = &peerHello{}
	case kindPeerRequest:
		f = &peerRequest{}
	case kindPeerResponse:
		f = &peerResponse{}
	case kindPull:
		f = &pull{}
	case kindForget:
		f = &forget{}
	default:
		return nil, 0, fmt.Errorf("unknown frame kind %d", b[4])
	}
	in := &link{maxFrame: maxFrame}
	in.dec.r = bufio.NewReader(bytes.NewReader(b))
	size, err := in.recv(f)
	if err != nil {
		return nil, 0, err
	}
	// A hello of another version is rejected on Proto alone, its other
	// fields unread — there is nothing to re-encode.
	proto := protoVersion
	switch h := f.(type) {
	case *hello:
		proto = h.Proto
	case *peerHello:
		proto = h.Proto
	}
	if proto != protoVersion {
		return nil, 0, fmt.Errorf("protocol %d", proto)
	}
	var buf bytes.Buffer
	out := &link{w: bufio.NewWriter(&buf), maxFrame: maxFrame}
	if _, err := out.send(f); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), int(size), nil
}

// Pipe is an in-memory connection for the wire benchmarks: one long-lived
// sending link and one receiving link over a shared buffer, as a worker
// connection keeps them.
type Pipe struct {
	buf      bytes.Buffer
	out, in  *link
	msg, got peerResponse
}

func NewPipe() *Pipe {
	p := &Pipe{}
	p.out = &link{w: bufio.NewWriterSize(&p.buf, linkBufBytes), maxFrame: maxFrameBytes}
	p.in = &link{maxFrame: maxFrameBytes}
	p.in.dec.r = bufio.NewReaderSize(&p.buf, linkBufBytes)
	return p
}

// RoundTrip sends v as the payload of one frame and decodes it back.
func (p *Pipe) RoundTrip(v any) (any, error) {
	p.msg = peerResponse{OK: true, Val: v}
	if _, err := p.out.send(&p.msg); err != nil {
		return nil, err
	}
	if _, err := p.in.recv(&p.got); err != nil {
		return nil, err
	}
	return p.got.Val, nil
}
