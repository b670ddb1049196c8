package edge

import (
	"os"
	"testing"

	"taskml/internal/leakcheck"
)

// TestMain fails the package's tests when they leave a goroutine behind: a
// runtime carrier or a kernel helper that outlives its run.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }
