package streamtune_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the benchmark gate inside tier-1: bench/ is
// a nested module that `go build ./... && go test ./...` at the root
// never compiles, so an internal/... signature change would otherwise
// break `bash bench/run.sh` silently. The module settings are the ones
// bench/run.sh exports, so nothing is fetched.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "-C", "bench", "./...")
	cmd.Env = append(os.Environ(),
		"GOFLAGS=-mod=mod", "GOPROXY=off", "GOSUMDB=off", "GOWORK=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
