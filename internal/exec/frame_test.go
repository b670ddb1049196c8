package exec

// Hostile and corrupt frames on every decoder that faces a socket — the
// coordinator's worker links, its dial-in listener and a worker's
// coordinator link: each costs the connection, through the ordinary failure
// paths, and never a panic or an allocation sized by the attacker.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// rawFrame prefixes body with its length and kind, without checking either.
func rawFrame(kind byte, body ...byte) []byte {
	out := binary.LittleEndian.AppendUint32(nil, uint32(len(body)+1))
	return append(append(out, kind), body...)
}

// hostileFrames are replies of the given kind that must fail their link.
// Each value sits where the kind's first tagged value goes, after idBytes.
func hostileFrames(kind byte, idBytes ...byte) map[string][]byte {
	value := func(v ...byte) []byte { return rawFrame(kind, append(append([]byte{}, idBytes...), v...)...) }
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // 2^63-1 as a uvarint
	return map[string][]byte{
		"length prefix past the bound":      {0xff, 0xff, 0xff, 0xff, kind},
		"length prefix of zero":             {0, 0, 0, 0, kind},
		"wrong kind":                        rawFrame(kindHello, 1),
		"truncated body":                    value(),
		"float slice longer than its frame": value(append([]byte{tagFloat64s}, huge...)...),
		"matrix whose shape is not its payload": value(tagDense, 0x80, 0x80, 0x40 /* 2^20 rows */, 0x80, 0x80, 0x40 /* 2^20 cols */, 3, /* 2 elements */
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
		"any slice longer than its frame": value(append([]byte{tagAnys}, huge...)...),
		"unknown value tag":               value(0xee),
		"non-minimal varint":              value(tagInt, 0x80, 0x00),
	}
}

// TestHostileResponseFailsWorker: whatever a worker sends instead of a
// response, the attempt fails with a connection error, the member is
// retired through failWorker, and the stats stay a partition.
func TestHostileResponseFailsWorker(t *testing.T) {
	replies := hostileFrames(kindResponse, 1 /* ID */, 2 /* Vals: one value */)
	// Well formed, but not an answer to what was asked: one request went out.
	replies["replies to more requests than were sent"] = encoded(t, &response{ID: 1, Vals: []any{1.0}, Chain: []response{{Vals: []any{2.0}}}})
	for name, reply := range replies {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				lk := newLink(conn)
				_ = lk.send(&hello{Proto: protoVersion, Pid: 1, Slots: 1})
				var req request
				if err := lk.recv(&req); err != nil {
					return
				}
				_, _ = conn.Write(reply)
				_, _ = io.Copy(io.Discard, conn) // until the coordinator hangs up
			}()

			r, err := Dial(RemoteConfig{Peers: []string{l.Addr().String()}, DialTimeout: 2 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if _, _, err := r.Execute("anything", 1, []any{1.0}); err == nil {
				t.Fatal("a hostile reply must fail the attempt")
			}
			if n := r.AliveWorkers(); n != 0 {
				t.Fatalf("AliveWorkers = %d, want the member retired", n)
			}
			if st := r.Stats(); st.Dispatched != 1 || st.Failed != 1 || st.Completed != 0 {
				t.Fatalf("Stats = %+v, want the one dispatch counted Failed", st)
			}
		})
	}
}

// TestProtocolMismatchRefused: a worker of the previous protocol is refused
// on its hello's first field, before anything else of the frame — whatever
// that version put there — is decoded, and never becomes a member.
func TestProtocolMismatchRefused(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// What follows Proto here is an any-slice claiming 2^63-1 elements,
		// which must not be looked at.
		_, _ = conn.Write(rawFrame(kindHello, 2*(protoVersion-1), tagAnys, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
		_, _ = io.Copy(io.Discard, conn)
	}()
	_, err = Dial(RemoteConfig{Peers: []string{l.Addr().String()}, DialTimeout: 2 * time.Second})
	if want := fmt.Sprintf("speaks protocol %d, want %d", protoVersion-1, protoVersion); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Dial = %v, want the hello refused on its protocol version", err)
	}
}

// TestHostileForget: a forget frame's session count is checked against the
// bytes the frame has left before anything is made from it, and a session
// that runs past the frame fails it.
func TestHostileForget(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}
	for name, b := range map[string][]byte{
		"count past the frame": rawFrame(kindForget, huge...),
		"truncated session":    rawFrame(kindForget, 2, 7, 0x80),
		"trailing bytes":       rawFrame(kindForget, 1, 7, 9),
		"past the frame bound": {0xff, 0xff, 0xff, 0x7f, kindForget},
	} {
		t.Run(name, func(t *testing.T) {
			l := &link{maxFrame: 1 << 20}
			l.dec.r = bufio.NewReader(bytes.NewReader(b))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := l.recvAny(&request{}, &pull{}, &forget{})
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("decoded")
			}
			if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
				t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(b))
			}
		})
	}
}

// encoded returns f as a link writes it.
func encoded(t *testing.T, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	l := &link{w: bufio.NewWriter(&buf), maxFrame: maxFrameBytes}
	if err := l.send(f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHostileChainFrames: the member count of a request or response frame is
// checked against the bytes the frame has left before anything is allocated
// from it, a frame that ends inside a member fails, and a member cannot carry
// members of its own — the encoding has no place for them, so whatever follows
// the last member is trailing bytes.
func TestHostileChainFrames(t *testing.T) {
	huge := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f} // 2^63-1 as a uvarint
	for _, tc := range []struct {
		name  string
		kind  byte
		empty frame
		fresh func() frame
	}{
		{"request", kindRequest, &request{ID: 1, Name: "f", NOut: 1, Args: []any{1.0}}, func() frame { return &request{} }},
		{"response", kindResponse, &response{ID: 1, Vals: []any{1.0}, BodyNs: 5}, func() frame { return &response{} }},
	} {
		whole := encoded(t, tc.empty)
		fields := whole[5 : len(whole)-1] // one member's fields: the frame minus its prefix and its member count of 0
		join := func(parts ...[]byte) []byte { return rawFrame(tc.kind, bytes.Join(parts, nil)...) }
		for name, b := range map[string][]byte{
			"count past the frame":  join(fields, huge),
			"count without members": join(fields, []byte{3}),
			"truncated member":      join(fields, []byte{2}, fields, fields[:3]),
			"member with members":   join(fields, []byte{1}, fields, []byte{1}, fields),
		} {
			t.Run(tc.name+"/"+name, func(t *testing.T) {
				l := &link{maxFrame: maxFrameBytes}
				l.dec.r = bufio.NewReader(bytes.NewReader(b))
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := l.recv(tc.fresh())
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Fatal("decoded")
				}
				if got := after.TotalAlloc - before.TotalAlloc; got > 1<<16 {
					t.Fatalf("allocated %d bytes decoding a %d-byte frame", got, len(b))
				}
			})
		}
		// And the shape the cases above are corruptions of does decode.
		l := &link{maxFrame: maxFrameBytes}
		l.dec.r = bufio.NewReader(bytes.NewReader(join(fields, []byte{2}, fields, fields)))
		if err := l.recv(tc.fresh()); err != nil {
			t.Fatalf("%s: a frame of three well-formed members: %v", tc.name, err)
		}
	}
}

// expectClosed writes payload to addr and waits for the far end to hang up.
func expectClosed(t *testing.T, addr string, payload []byte) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(payload); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.Copy(io.Discard, conn); err != nil {
		t.Fatalf("the listener kept a connection that sent a hostile frame: %v", err)
	}
}

// TestHostileRegistrationDropped: garbage on the fleet listen port is hung
// up on before it can become a member.
func TestHostileRegistrationDropped(t *testing.T) {
	r := newRemote(time.Second)
	defer r.Close()
	addr, err := r.ListenForWorkers("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range hostileFrames(kindHello) {
		t.Run(name, func(t *testing.T) { expectClosed(t, addr, payload) })
	}
	if n := len(r.Workers()); n != 0 {
		t.Fatalf("%d members admitted from hostile registrations", n)
	}
}

// TestHostileWorkerHelloRefused: a worker the coordinator dials that answers
// with garbage instead of a hello is refused at once — on the frame, not
// after the handshake timeout — and never becomes a member.
func TestHostileWorkerHelloRefused(t *testing.T) {
	r := newRemote(5 * time.Second)
	defer r.Close()
	for name, payload := range hostileFrames(kindHello) {
		t.Run(name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				defer conn.Close()
				_, _ = conn.Write(payload)
				_, _ = io.Copy(io.Discard, conn) // until the coordinator hangs up
			}()
			start := time.Now()
			if _, err := r.join(l.Addr().String()); err == nil {
				t.Fatal("a worker whose hello is hostile was admitted")
			}
			if el := time.Since(start); el > time.Second {
				t.Fatalf("the refusal took %v: a hello that does not decode must fail at once, not wait out the timeout", el)
			}
		})
	}
	if n := len(r.Workers()); n != 0 {
		t.Fatalf("%d members admitted from hostile hellos", n)
	}
}

// TestHostileRequestDropsCoordinator: whatever a coordinator sends a worker
// instead of a request — each value where the request's first argument goes
// — the worker hangs up after its hello.
func TestHostileRequestDropsCoordinator(t *testing.T) {
	addr := serveHere(t)
	args := []byte{1 /* ID */, 0 /* Name */, 2 /* NOut */, 0, 0 /* Session, Task */, 0, 0 /* Store, Hold */, 2 /* Args: one value */}
	for name, payload := range hostileFrames(kindRequest, args...) {
		t.Run(name, func(t *testing.T) { expectClosed(t, addr, payload) })
	}
}
