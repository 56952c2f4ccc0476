package sched

import (
	"encoding/json"
	"strings"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/suite"
)

// FuzzWorkloadSpec decodes arbitrary workload JSON the way /v1/schedule
// and dwarfsched -workload do, unknown fields refused, and expands it.
// Nothing may panic, and an accepted workload holds 1 to MaxWorkloadTasks
// tasks with unique IDs, each at a size its benchmark supports.
func FuzzWorkloadSpec(f *testing.F) {
	seed, err := json.Marshal(testWorkloadSpec)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(seed))
	// TestWorkloadSpecValidation's specs.
	for _, s := range []string{
		`{"tasks":[{"benchmark":"nope","size":"tiny"}]}`,
		`{"tasks":[{"benchmark":"nqueens","size":"large"}]}`,
		`{}`,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":-1}]}`,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":2000000000}]}`,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":65535},{"benchmark":"fft","size":"tiny","count":2}]}`,
		`{"tasks":[{"benchmark":"crc","size":"tiny","count":2},{"benchmark":"fft","size":"tiny"}]}`,
	} {
		f.Add(s)
	}
	reg := suite.New()
	f.Fuzz(func(t *testing.T, src string) {
		dec := json.NewDecoder(strings.NewReader(src))
		dec.DisallowUnknownFields()
		var spec WorkloadSpec
		if err := dec.Decode(&spec); err != nil {
			return
		}
		w, err := spec.Expand(reg)
		if err != nil {
			return
		}
		if n := len(w.Tasks); n < 1 || n > MaxWorkloadTasks {
			t.Fatalf("accepted workload has %d tasks", n)
		}
		ids := make(map[string]bool, len(w.Tasks))
		for _, task := range w.Tasks {
			if ids[task.ID] {
				t.Fatalf("task ID %q repeats", task.ID)
			}
			ids[task.ID] = true
			b, err := reg.Get(task.Benchmark)
			if err != nil {
				t.Fatalf("task %s: %v", task.ID, err)
			}
			if !dwarfs.SupportsSize(b, task.Size) {
				t.Fatalf("task %s: %s does not support size %q", task.ID, task.Benchmark, task.Size)
			}
		}
	})
}
