package main_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolProtocol builds dwarfvet and drives it exactly as CI does —
// `go vet -vettool=dwarfvet` over a scratch module seeded with a
// typed-nil bug, a global rand draw, an inline metric name, and a send
// under a mutex — validating the whole unitchecker protocol (-V=full,
// -flags, per-unit cfg, facts output, diagnostic exit) end to end.
func TestVettoolProtocol(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	tmp := t.TempDir()

	tool := filepath.Join(tmp, "dwarfvet")
	build := exec.Command("go", "build", "-o", tool, "opendwarfs/cmd/dwarfvet")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dwarfvet: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "scratch")
	writeFile(t, filepath.Join(mod, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(mod, "buggy", "buggy.go"), `package buggy

type provider interface{ Cost(string) float64 }

type costs struct{}

func (*costs) Cost(string) float64 { return 0 }

type params struct{ Truth provider }

// Seeded bug 1: conditionally-assigned pointer into an interface field.
func Configure(oracle bool) params {
	var truth *costs
	if oracle {
		truth = &costs{}
	}
	return params{Truth: truth}
}
`)
	// Seeded bugs 2-4 live in a package named to fall inside the detrand
	// and locksend default scopes.
	writeFile(t, filepath.Join(mod, "harness", "harness.go"), `package harness

import (
	"math/rand"
	"sync"
)

var mu sync.Mutex
var subs []chan int

func Draw() int64 { return rand.Int63() }

func Publish(v int) {
	mu.Lock()
	defer mu.Unlock()
	for _, ch := range subs {
		ch <- v
	}
}
`)
	writeFile(t, filepath.Join(mod, "clean", "clean.go"), `package clean

// Clean package: no findings expected here.
func Add(a, b int) int { return a + b }
`)

	vet := exec.Command("go", "vet", "-vettool="+tool, "./...")
	vet.Dir = mod
	var out bytes.Buffer
	vet.Stdout = &out
	vet.Stderr = &out
	err := vet.Run()
	text := out.String()

	if err == nil {
		t.Fatalf("go vet -vettool succeeded on seeded bugs; output:\n%s", text)
	}
	for _, want := range []string{
		"possibly-nil *costs stored in interface provider",
		"use of global rand.Int63",
		"channel send while holding mu",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("vet output missing %q; got:\n%s", want, text)
		}
	}
	if strings.Contains(text, "clean.go") {
		t.Errorf("vet flagged the clean package:\n%s", text)
	}

	// An //lint:allow annotation must silence the finding and flip the
	// run to success for that package.
	writeFile(t, filepath.Join(mod, "buggy", "buggy.go"), `package buggy

type provider interface{ Cost(string) float64 }

type costs struct{}

func (*costs) Cost(string) float64 { return 0 }

type params struct{ Truth provider }

func Configure(oracle bool) params {
	var truth *costs
	if oracle {
		truth = &costs{}
	}
	//lint:allow typednil scratch fixture proves the suppression path
	return params{Truth: truth}
}
`)
	vet2 := exec.Command("go", "vet", "-vettool="+tool, "./buggy/...")
	vet2.Dir = mod
	if out2, err := vet2.CombinedOutput(); err != nil {
		t.Errorf("go vet on allow-annotated package failed: %v\n%s", err, out2)
	}
}

// TestAnalyzerToggle checks the vet-style -NAME=false analyzer toggles.
func TestAnalyzerToggle(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Fatalf("go tool not found: %v", err)
	}
	tmp := t.TempDir()
	tool := filepath.Join(tmp, "dwarfvet")
	build := exec.Command("go", "build", "-o", tool, "opendwarfs/cmd/dwarfvet")
	build.Dir = moduleRoot(t)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building dwarfvet: %v\n%s", err, out)
	}

	mod := filepath.Join(tmp, "scratch")
	writeFile(t, filepath.Join(mod, "go.mod"), "module scratch\n\ngo 1.24\n")
	writeFile(t, filepath.Join(mod, "harness", "harness.go"), `package harness

import "math/rand"

func Draw() int64 { return rand.Int63() }
`)

	// With detrand disabled the seeded global draw must pass.
	vet := exec.Command("go", "vet", "-vettool="+tool, "-detrand=false", "./...")
	vet.Dir = mod
	if out, err := vet.CombinedOutput(); err != nil {
		t.Errorf("go vet -detrand=false failed: %v\n%s", err, out)
	}
}

func moduleRoot(t *testing.T) string {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(filepath.Dir(wd)) // cmd/dwarfvet -> repo root
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
