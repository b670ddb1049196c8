package taskml

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestVirtualSuites runs the virtual-time tests, which build only under
// GOEXPERIMENT=synctest (go1.24), so a plain `go test ./...` sees them too:
// it runs `go test -count=1 -run Virtual` with the experiment set over every
// package under internal/ whose tests carry the goexperiment.synctest build
// tag, and fails with the child's output. The packages are all under
// internal/, so the child never runs this test again. The first run after a
// toolchain change recompiles the standard library under the experiment
// (≈ 20 s on a 2-core box); warm, it costs about a second there.
func TestVirtualSuites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a child go test")
	}
	var pkgs []string
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if bytes.Contains(src, []byte("//go:build goexperiment.synctest")) && !slices.Contains(pkgs, pkg) {
			pkgs = append(pkgs, pkg)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no package under internal/ has a goexperiment.synctest test file")
	}
	args := append([]string{"test", "-count=1", "-timeout", "120s", "-run", "Virtual"}, pkgs...)
	cmd := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...)
	cmd.Env = append(os.Environ(), "GOEXPERIMENT=synctest")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("GOEXPERIMENT=synctest go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
}
