package predict

import (
	"context"
	"sync"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/suite"
)

// fullDataset measures the full 615-cell grid at seed 2 once per test
// binary, so no benchmark iteration or warm-up run pays for it.
var fullDataset = sync.OnceValues(func() (*Dataset, error) {
	opt := harness.DefaultOptions()
	opt.Seed = 2
	g, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{Options: opt})
	if err != nil {
		return nil, err
	}
	return FromGrid(g)
})

// BenchmarkTrain times one forest at DefaultConfig on the full grid: the
// training dwarfserve runs before its first /v1/predict and after every
// job, and sched.NewCosts runs twice. -cpu sets its worker count.
func BenchmarkTrain(b *testing.B) {
	ds, err := fullDataset()
	if err != nil {
		b.Fatal(err)
	}
	if len(ds.Rows) != 615 {
		b.Fatalf("%d rows, want 615", len(ds.Rows))
	}
	b.ReportAllocs()
	b.ResetTimer()
	// A b.N loop, not b.Loop: under go1.24 b.Loop runs every iteration
	// of the first -cpu value before GOMAXPROCS is set to it.
	for i := 0; i < b.N; i++ {
		if _, err := Train(ds, DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}
