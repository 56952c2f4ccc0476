package main_test

// Process-level gates: these tests build the dwarfsched binary once and
// run it as a user or CI would, checking exit codes and what it prints.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	binDir    string // removed by TestMain after the run
	buildOnce sync.Once
	binPath   string
	buildErr  error
)

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "dwarfsched-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// dwarfsched returns the path of the dwarfsched binary, building it on
// first use. A binary that does not build fails the test; it never skips.
func dwarfsched(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		bin := filepath.Join(binDir, "dwarfsched")
		if out, err := exec.CommandContext(ctx, "go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building dwarfsched: %v\n%s", err, out)
			return
		}
		binPath = bin
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return binPath
}

// run runs dwarfsched with args under a deadline and returns its stdout,
// failing the test unless it exits 0.
func run(t *testing.T, args ...string) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, dwarfsched(t), args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("dwarfsched %s: %v\nstdout:\n%s\nstderr:\n%s",
			strings.Join(args, " "), err, stdout.Bytes(), stderr.Bytes())
	}
	return stdout.String()
}

// lastLine returns the final line of out.
func lastLine(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	return lines[len(lines)-1]
}

// TestDefaultRunGolden pins the default invocation's stdout — every
// benchmark at large ×3 on all 15 devices, bootstrapped from 4 — which
// holds the policy comparison and the primary policy's timeline. The
// output is the same at every -parallel. A mismatch means a schedule,
// a cost or the report changed; refresh only with a documented model or
// output change.
func TestDefaultRunGolden(t *testing.T) {
	const want = "4b83c7948f0757b89be6009606ca0c46f9375577daf0eb711c20676addcf79a3"
	sum := sha256.Sum256([]byte(run(t)))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("default run stdout digest %s, want %s", got, want)
	}
}

// smokeArgs is the tiny workload and fleet of the smoke legs: only
// titanx is never bootstrapped, so its costs start as predictions.
var smokeArgs = []string{
	"-tasks", "crc/tiny:2,fft/tiny:2,nw/tiny:2",
	"-devices", "i7-6700k,gtx1080,k20m,titanx",
	"-samples", "6",
}

// TestSchedSmoke: HEFT on predictions lands within 25% of the
// measured-cost oracle's makespan — single-shot from a three-device
// bootstrap, then the store-backed online loop from a two-device one,
// then a warm re-run served from that loop's store. The legs run in
// order: the last reads the store the second wrote.
func TestSchedSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, leg := range []struct {
		name string
		args []string
	}{
		{"single_shot", []string{"-bootstrap", "i7-6700k,gtx1080,k20m", "-assert-regret", "25"}},
		{"online_loop", []string{"-bootstrap", "i7-6700k,gtx1080", "-store", dir, "-rounds", "3", "-assert-regret", "25"}},
		{"warm_rerun", []string{"-bootstrap", "i7-6700k,gtx1080", "-store", dir, "-assert-regret", "25"}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			out := run(t, append(smokeArgs, leg.args...)...)
			if last := lastLine(out); !strings.Contains(last, "within ceiling 25.00%") {
				t.Fatalf("closing line %q, want the regret within the 25%% ceiling", last)
			}
		})
	}
}

// TestChaosSmoke drives the online loop under 20% transient faults and a
// permanent k20m dropout: the run must quarantine k20m, measure every
// cell reachable on the survivors (-assert-complete) and still keep HEFT
// within the 25% regret ceiling.
func TestChaosSmoke(t *testing.T) {
	out := run(t, append(smokeArgs,
		"-bootstrap", "i7-6700k,gtx1080", "-store", t.TempDir(), "-rounds", "2",
		"-chaos", "-chaos-transient", "0.2", "-chaos-drop", "k20m",
		"-retries", "4", "-retry-backoff", "1ms", "-assert-complete", "-assert-regret", "25")...)
	if !strings.Contains(out, "\ncompleteness: ") {
		t.Fatalf("no completeness line in:\n%s", out)
	}
	if !strings.Contains(out, "quarantined: k20m") {
		t.Fatalf("k20m was not quarantined:\n%s", out)
	}
	if last := lastLine(out); !strings.Contains(last, "within ceiling 25.00%") {
		t.Fatalf("closing line %q, want the regret within the 25%% ceiling", last)
	}
}
