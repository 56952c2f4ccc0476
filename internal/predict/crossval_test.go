package predict

import (
	"context"

	"math"
	"strings"
	"testing"

	"opendwarfs/internal/harness"
	"opendwarfs/internal/suite"
)

// tinyGrid measures the full 11-benchmark × tiny × 15-device grid — the
// smallest slice that still exercises every benchmark and device — and
// returns its runtime dataset together with the grid.
func tinyGrid(t *testing.T) (*Dataset, *harness.Grid) {
	t.Helper()
	grid, err := harness.RunGrid(context.Background(), suite.New(), harness.GridSpec{
		Sizes:   []string{"tiny"},
		Options: harness.DefaultOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := FromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	return ds, grid
}

func TestFromGridShape(t *testing.T) {
	ds, _ := tinyGrid(t)
	if len(ds.Benchmarks()) != 11 || len(ds.Devices()) != 15 {
		t.Fatalf("grid %d benchmarks × %d devices, want 11 × 15", len(ds.Benchmarks()), len(ds.Devices()))
	}
	if len(ds.Rows) != 11*15 {
		t.Fatalf("%d rows, want %d", len(ds.Rows), 11*15)
	}
	for i := range ds.Rows {
		r := &ds.Rows[i]
		if len(r.Features) != len(ds.FeatureNames) {
			t.Fatalf("row %d: %d features, want %d", i, len(r.Features), len(ds.FeatureNames))
		}
		for j, v := range r.Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("row %s/%s/%s: feature %s is %v", r.Benchmark, r.Size, r.Device, ds.FeatureNames[j], v)
			}
		}
		if !(r.LogNs > 0) || math.IsInf(r.LogNs, 0) {
			t.Fatalf("row %d: bad target %v", i, r.LogNs)
		}
	}
}

// TestLeaveOneDeviceOutAccuracy is the acceptance criterion: over the full
// 11-benchmark grid, per-device median MAPE of the log-runtime predictions
// stays below the 50% ceiling (it lands near 1% in practice; the ceiling
// is loose on purpose so hardware-noise-free refactors don't flake it).
func TestLeaveOneDeviceOutAccuracy(t *testing.T) {
	ds, _ := tinyGrid(t)
	cfg := DefaultConfig()
	cv, err := LeaveOneDeviceOut(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 15 {
		t.Fatalf("%d folds, want 15", len(cv.Folds))
	}
	if got := cv.MedianFoldLogMAPE(); !(got <= 50) {
		t.Fatalf("median per-device LogMAPE %.2f%%, want ≤ 50%%", got)
	}
	// The linear-domain number is reported too; it should also be sane on
	// the tiny grid (well under 100% for the median device).
	if got := cv.MedianFoldMAPE(); !(got <= 100) {
		t.Fatalf("median per-device MAPE %.1f%%, want ≤ 100%%", got)
	}
	for i := range cv.Folds {
		f := &cv.Folds[i]
		if f.N != 11 {
			t.Fatalf("fold %s held %d cells, want 11", f.Held, f.N)
		}
		for _, p := range f.Predictions {
			if p.Device != f.Held {
				t.Fatalf("fold %s contains prediction for %s", f.Held, p.Device)
			}
			if math.IsNaN(p.PredNs) || p.PredNs <= 0 {
				t.Fatalf("fold %s: bad prediction %v for %s/%s", f.Held, p.PredNs, p.Benchmark, p.Size)
			}
		}
	}
}

func TestLeaveOneBenchmarkOutRuns(t *testing.T) {
	ds, _ := tinyGrid(t)
	cfg := DefaultConfig()
	cv, err := LeaveOneBenchmarkOut(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 11 {
		t.Fatalf("%d folds, want 11", len(cv.Folds))
	}
	for i := range cv.Folds {
		for _, p := range cv.Folds[i].Predictions {
			if math.IsNaN(p.PredNs) || math.IsInf(p.PredNs, 0) || p.PredNs <= 0 {
				t.Fatalf("fold %s: non-finite prediction for %s/%s/%s", cv.Folds[i].Held, p.Benchmark, p.Size, p.Device)
			}
		}
	}
}

// TestCrossValidationDeterministicAcrossWorkers extends the worker-count
// guarantee to the fold level: the whole cross-validation result must be
// bitwise-identical at every worker count.
func TestCrossValidationDeterministicAcrossWorkers(t *testing.T) {
	ds, _ := tinyGrid(t)
	// A smaller forest keeps the 15-fold × 3-config matrix fast.
	base := DefaultConfig()
	base.Trees = 24
	var ref *CVResult
	for _, workers := range []int{1, 3, 8} {
		cfg := base
		cfg.Workers = workers
		cv, err := LeaveOneDeviceOut(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = cv
			continue
		}
		for i := range cv.Folds {
			a, b := &ref.Folds[i], &cv.Folds[i]
			if a.Held != b.Held || a.MAPE != b.MAPE || a.LogMAPE != b.LogMAPE || a.MedAPE != b.MedAPE {
				t.Fatalf("workers=%d fold %s differs: %+v vs %+v", workers, a.Held, b, a)
			}
			for j := range a.Predictions {
				if a.Predictions[j] != b.Predictions[j] {
					t.Fatalf("workers=%d fold %s prediction %d differs", workers, a.Held, j)
				}
			}
		}
	}
}

func TestCrossValidationExports(t *testing.T) {
	ds, _ := tinyGrid(t)
	cfg := DefaultConfig()
	cfg.Trees = 16
	cv, err := LeaveOneDeviceOut(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	preds := cv.Predictions()
	if len(preds) != len(ds.Rows) {
		t.Fatalf("%d predictions, want one per row (%d)", len(preds), len(ds.Rows))
	}

	var csvOut, jsonlOut, dsOut strings.Builder
	if err := WritePredictionsCSV(&csvOut, preds); err != nil {
		t.Fatal(err)
	}
	if err := WritePredictionsJSONL(&jsonlOut, preds); err != nil {
		t.Fatal(err)
	}
	if err := WriteDatasetCSV(&dsOut, ds); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvOut.String(), "\n"); lines != len(preds)+1 {
		t.Fatalf("CSV has %d lines, want %d", lines, len(preds)+1)
	}
	if lines := strings.Count(jsonlOut.String(), "\n"); lines != len(preds) {
		t.Fatalf("JSONL has %d lines, want %d", lines, len(preds))
	}
	if !strings.Contains(dsOut.String(), "dev_log_peak_gflops") {
		t.Fatal("dataset CSV missing device feature column")
	}
}
