package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// scratchSrc is a throwaway package planting exactly one violation per
// analyzer of the suite. It lives under internal/core so the scoped passes
// (leakcheck) see it, in a module of its own so the diagnostics cannot be
// confused with findings against this repo.
const scratchSrc = `// Package core is a vet-mode fixture: one violation per analyzer.
package core

import "context"

// determinism: output order depends on map iteration order.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// ctxflow: the context is accepted and never consulted.
func Process(ctx context.Context, n int) int {
	return n + 1
}

// hotalloc: per-call allocation on an annotated hot path.
//
//mussti:hotpath
func Hot(n int) int {
	buf := make([]int, n)
	return len(buf)
}

// wirecompat: a map field in the wire schema.
//
//mussti:wire
type Envelope struct {
	Routing map[string]int ` + "`json:\"routing\"`" + `
}

// leakcheck: a goroutine nothing can join.
func Spawn() {
	go tick()
}

func tick() {}
`

// scratchTestSrc plants a violation in a _test.go file; vet mode must drop
// test files, so this one must never surface.
const scratchTestSrc = `package core

func keysFromTest(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
`

// lineOf locates a marker in the fixture source, so the expected diagnostic
// positions track edits to the fixture instead of hard-coded line numbers.
func lineOf(t *testing.T, src, marker string) int {
	t.Helper()
	idx := strings.Index(src, marker)
	if idx < 0 {
		t.Fatalf("marker %q not found in fixture source", marker)
	}
	return 1 + strings.Count(src[:idx], "\n")
}

// TestVettoolMode builds the musstilint binary, runs it under the real
// `go vet -vettool` driver against the scratch module, and checks that every
// pass fires at the planted position — the full unitchecker protocol
// (-V=full, -flags, unit.cfg), not the standalone loader.
func TestVettoolMode(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: skipping go-vet round trip")
	}
	tmp := t.TempDir()

	tool := filepath.Join(tmp, "musstilint")
	build := exec.Command("go", "build", "-o", tool, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building vettool: %v\n%s", err, out)
	}

	pkgDir := filepath.Join(tmp, "scratch", "internal", "core")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	writes := map[string]string{
		filepath.Join(tmp, "scratch", "go.mod"): "module scratch\n\ngo 1.24\n",
		filepath.Join(pkgDir, "core.go"):        scratchSrc,
		filepath.Join(pkgDir, "core_test.go"):   scratchTestSrc,
	}
	for path, content := range writes {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = filepath.Join(tmp, "scratch")
	out, err := vet.CombinedOutput()
	if err == nil {
		t.Fatalf("go vet exited 0 over a package with planted violations\n%s", out)
	}
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("go vet did not run: %v\n%s", err, out)
	}

	expects := []struct {
		analyzer string
		marker   string // fixture line the diagnostic must anchor to
		message  string
	}{
		{"determinism", "for k := range m {", "map iteration order is random"},
		{"ctxflow", "func Process(ctx context.Context", "never uses its context.Context parameter ctx"},
		{"hotalloc", "buf := make([]int, n)", "allocates per call"},
		{"wirecompat", "Routing map[string]int", "cannot cross the wire losslessly"},
		{"leakcheck", "go tick()", "plain call with no completion signal"},
	}
	lines := strings.Split(string(out), "\n")
	for _, want := range expects {
		pos := fmt.Sprintf("core.go:%d:", lineOf(t, scratchSrc, want.marker))
		tag := "[" + want.analyzer + "]"
		found := false
		for _, line := range lines {
			if strings.Contains(line, pos) && strings.Contains(line, want.message) && strings.Contains(line, tag) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no diagnostic at %s matching %q %s; vet output:\n%s", pos, want.message, tag, out)
		}
	}
	if strings.Contains(string(out), "core_test.go") {
		t.Errorf("vet mode reported a _test.go finding; test files must be dropped:\n%s", out)
	}
}
