package main

import (
	"encoding/json"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: opendwarfs/internal/harness
cpu: some cpu
BenchmarkRunGridSequential-8     	       3	 412345678 ns/op	         1.000 workers	 2012345 B/op	   31234 allocs/op
BenchmarkRunGridParallel-8       	       3	  98765432 ns/op	         8.000 workers	 2098765 B/op	   32345 allocs/op
BenchmarkRunGridUncachedCells-8  	       3	 300000000 ns/op	 5000000 B/op	   90000 allocs/op
BenchmarkRunGridCachedCells      	       3	 100000000 ns/op	 1000000 B/op	   20000 allocs/op
PASS
ok  	opendwarfs/internal/harness	3.2s
`

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("parsed %d benchmarks, want 4: %v", len(got), got)
	}
	seq, ok := got["RunGridSequential"]
	if !ok {
		t.Fatalf("GOMAXPROCS suffix not stripped: %v", got)
	}
	if seq.NsPerOp != 412345678 || seq.AllocsPerOp != 31234 || seq.BytesPerOp != 2012345 {
		t.Fatalf("RunGridSequential = %+v", seq)
	}
	// A name with no -N suffix parses as-is.
	if got["RunGridCachedCells"].NsPerOp != 100000000 {
		t.Fatalf("RunGridCachedCells = %+v", got["RunGridCachedCells"])
	}
	// The custom "workers" metric must not be mistaken for a gated one.
	if got["RunGridParallel"].NsPerOp != 98765432 {
		t.Fatalf("RunGridParallel = %+v", got["RunGridParallel"])
	}
}

func TestCompare(t *testing.T) {
	base := map[string]Result{
		"A": {NsPerOp: 100, AllocsPerOp: 10},
		"B": {NsPerOp: 100, AllocsPerOp: 10},
		"C": {NsPerOp: 100, AllocsPerOp: 10},
	}
	cur := map[string]Result{
		"A": {NsPerOp: 199, AllocsPerOp: 19}, // within 2x
		"B": {NsPerOp: 201, AllocsPerOp: 25}, // both metrics regress
		// C missing
		"D": {NsPerOp: 9e9, AllocsPerOp: 9e9}, // new benchmark: not gated
	}
	vs := compare(base, cur, 2.0)
	if len(vs) != 3 {
		t.Fatalf("%d violations, want 3 (B ns, B allocs, C missing): %v", len(vs), vs)
	}
	joined := strings.Join(vs, "\n")
	for _, want := range []string{"B: 201 ns/op", "B: 25 allocs/op", "C: present in baseline"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("violations %q missing %q", joined, want)
		}
	}
	if strings.Contains(joined, "A:") || strings.Contains(joined, "D:") {
		t.Fatalf("false positive in %q", joined)
	}

	if vs := compare(base, map[string]Result{
		"A": {NsPerOp: 150, AllocsPerOp: 10},
		"B": {NsPerOp: 100, AllocsPerOp: 10},
		"C": {NsPerOp: 100, AllocsPerOp: 10},
	}, 2.0); len(vs) != 0 {
		t.Fatalf("clean run flagged: %v", vs)
	}
}

// B/op is gated only for baseline entries that record it, and a run
// without -benchmem writes no bytes_per_op.
func TestCompareBytesPerOp(t *testing.T) {
	base := map[string]Result{
		"Gated":   {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
		"Ungated": {NsPerOp: 100, AllocsPerOp: 10},
		"Within":  {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 1000},
	}
	cur := map[string]Result{
		"Gated":   {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 80e6},
		"Ungated": {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 80e6},
		"Within":  {NsPerOp: 100, AllocsPerOp: 10, BytesPerOp: 2400},
	}
	vs := compare(base, cur, 2.5)
	if len(vs) != 1 || !strings.Contains(vs[0], "Gated: 80000000 B/op exceeds baseline 1000") {
		t.Fatalf("violations %v, want only Gated's B/op", vs)
	}

	got, err := parseBench(strings.NewReader("BenchmarkX-2 \t 3\t 100 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(got["X"])
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "bytes_per_op") {
		t.Fatalf("run without B/op encoded as %s", raw)
	}
}
