package exec_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"taskml/internal/exec"
)

var update = flag.Bool("update", false, "rewrite testdata/wire.golden")

// TestWireGolden pins the protocol's bytes: every sample frame and every
// corpus value must encode to exactly what testdata/wire.golden records.
// The round-trip tests and the fuzzers only prove that decode and encode
// agree with each other; a change that moves both sides together passes
// them and still breaks every peer of the same protocol version. Run with
// -update to rewrite the file after a deliberate format change, and bump
// protoVersion with it.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for i, f := range exec.SampleFrames(corpus()) {
		fmt.Fprintf(&got, "frame %d %x\n", i, f)
	}
	for i, v := range corpus() {
		b, err := exec.EncodeValue(v)
		if err != nil {
			t.Fatalf("corpus[%d] %T: %v", i, v, err)
		}
		fmt.Fprintf(&got, "value %d %T %x\n", i, v, b)
	}
	path := filepath.Join("testdata", "wire.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := range min(len(gotLines), len(wantLines)) {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d of %s differs:\n got  %.200s\n want %.200s", i+1, path, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d lines encoded, %s has %d", len(gotLines)-1, path, len(wantLines)-1)
	}
}
