package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// cellLine matches one progress line: the bar, done/total, the cell's
// coordinates, its median and its wall time.
var cellLine = regexp.MustCompile(`^\[[█·]{24}\] +(\d+)/32  (\S+) +(\S+) +(\S+) +\d+\.\d{3} ms  \(measured, [^)]+\)$`)

// TestMainOutput runs the example and checks its output's structure:
// cells arrive in completion order with wall times, so the bytes vary
// from run to run.
func TestMainOutput(t *testing.T) {
	out := captureStdout(t, main)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	const cells = 32
	if len(lines) != cells+3 {
		t.Fatalf("got %d lines, want a header, %d cells, a blank line and a summary:\n%s", len(lines), cells, out)
	}
	if header := "Streaming a 32-cell grid (Ctrl-C to cancel mid-grid):"; lines[0] != header {
		t.Errorf("first line %q, want %q", lines[0], header)
	}
	want := map[string]bool{}
	for _, b := range selection.Benchmarks {
		for _, s := range selection.Sizes {
			for _, d := range selection.Devices {
				want[b+"/"+s+"/"+d] = true
			}
		}
	}
	for i, line := range lines[1 : cells+1] {
		m := cellLine.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d is not a cell line: %q", i+2, line)
		}
		if done, _ := strconv.Atoi(m[1]); done != i+1 {
			t.Errorf("line %d reports %d done, want %d", i+2, done, i+1)
		}
		cell := m[2] + "/" + m[3] + "/" + m[4]
		if !want[cell] {
			t.Errorf("line %d: cell %s is outside the selection or repeated", i+2, cell)
		}
		delete(want, cell)
	}
	if lines[cells+1] != "" {
		t.Errorf("line %d is %q, want a blank line", cells+2, lines[cells+1])
	}
	if last := lines[cells+2]; !strings.HasPrefix(last, "grid done: 32 cells in ") {
		t.Errorf("last line %q, want it to begin %q", last, "grid done: 32 cells in ")
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = stdout }()
	got := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		got <- string(b)
	}()
	f()
	w.Close()
	return <-got
}
