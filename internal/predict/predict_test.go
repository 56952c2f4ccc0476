package predict

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// synthRows builds a deterministic synthetic regression problem:
// y = 3*x0 + step(x1) + noise-free interaction, with a few inert features.
func synthRows(n int) ([]string, []Row) {
	names := []string{"x0", "x1", "x2", "x3"}
	rng := rand.New(rand.NewSource(7))
	rows := make([]Row, n)
	for i := range rows {
		x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		y := 3*x[0] + 2
		if x[1] > 0.5 {
			y += 1.5
		}
		rows[i] = Row{Features: x, LogNs: y, MedianNs: math.Exp(y)}
	}
	return names, rows
}

func TestForestFitsSyntheticFunction(t *testing.T) {
	names, rows := synthRows(400)
	cfg := DefaultConfig()
	cfg.Workers = 1
	f, err := TrainRows(names, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sumAbs := 0.0
	for i := range rows {
		sumAbs += math.Abs(f.Predict(rows[i].Features) - rows[i].LogNs)
	}
	if mae := sumAbs / float64(len(rows)); mae > 0.15 {
		t.Fatalf("training MAE %.3f on a noise-free function, want < 0.15", mae)
	}
}

func TestForestImportanceFindsActiveFeatures(t *testing.T) {
	names, rows := synthRows(400)
	cfg := DefaultConfig()
	f, err := TrainRows(names, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	imps := f.Importances()
	if len(imps) != len(names) {
		t.Fatalf("importance count %d, want %d", len(imps), len(names))
	}
	total := 0.0
	byName := map[string]float64{}
	for _, im := range imps {
		total += im.Share
		byName[im.Feature] = im.Share
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("importances sum to %f", total)
	}
	// The two active features must dominate the two inert ones.
	if byName["x0"] < byName["x2"] || byName["x0"] < byName["x3"] ||
		byName["x1"] < byName["x2"] || byName["x1"] < byName["x3"] {
		t.Fatalf("active features not dominant: %v", byName)
	}
}

// forestDigest is the SHA-256 of everything a trained forest is: every
// node of every tree (feature, threshold bits, children, leaf value bits),
// the raw per-feature importances, and the prediction for each row.
func forestDigest(f *Forest, rows []Row) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, tr := range f.trees {
		put(uint64(len(tr.nodes)))
		for _, nd := range tr.nodes {
			put(uint64(int64(nd.feature)))
			put(math.Float64bits(nd.threshold))
			put(uint64(int64(nd.left)))
			put(uint64(int64(nd.right)))
			put(math.Float64bits(nd.value))
		}
	}
	for _, v := range f.importance {
		put(math.Float64bits(v))
	}
	for i := range rows {
		put(math.Float64bits(f.Predict(rows[i].Features)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestForestDeterministicAcrossWorkers is the satellite determinism test:
// at a fixed seed the trained model must be bitwise-identical at every
// worker count, exactly like RunGrid's grid guarantee, and identical to a
// committed digest. Besides the synthetic rows it trains on the tiny
// grid's runtime and energy datasets, whose device features are shared by
// 11 rows and whose profiles are shared by 15 devices — ties the split
// search must order exactly as before. Refresh a digest only with a
// documented model change.
func TestForestDeterministicAcrossWorkers(t *testing.T) {
	synthNames, synth := synthRows(200)
	times, grid := tinyGrid(t)
	energy, err := EnergyFromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		names []string
		rows  []Row
		want  string
	}{
		{"synthetic", synthNames, synth, "6ecf24f6edc8080bd421eebb1b346a8ea46a0e9150bd3b4b5907682e987ca238"},
		{"tiny runtime", times.FeatureNames, times.Rows, "b33b4d589163bc70a92b0c51b9a0cee445be74af4c1cecd42b976936501081db"},
		{"tiny energy", energy.FeatureNames, energy.Rows, "004522bbc176b5682cd350620cc4ca48ee9d643a2fa9e10f7a99dd0002bf69db"},
	} {
		for _, workers := range []int{1, 2, 7, 16} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			f, err := TrainRows(c.names, c.rows, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := forestDigest(f, c.rows); got != c.want {
				t.Errorf("%s, workers=%d: forest digest %s, want %s", c.name, workers, got, c.want)
			}
		}
	}
}

func TestForestSeedChangesModel(t *testing.T) {
	names, rows := synthRows(200)
	cfg := DefaultConfig()
	a, err := TrainRows(names, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := TrainRows(names, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range rows {
		if a.Predict(rows[i].Features) != b.Predict(rows[i].Features) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical forests")
	}
}

func TestForestPredictionsAreFinite(t *testing.T) {
	// Ulp-adjacent feature values provoke the midpoint-rounding edge where
	// a naive CART threshold leaves one partition empty (NaN leaves).
	names := []string{"x0"}
	base := 1.0e20
	vals := []float64{base, math.Nextafter(base, math.Inf(1)), base * 2, base * 3}
	var rows []Row
	for i := 0; i < 64; i++ {
		v := vals[i%len(vals)]
		rows = append(rows, Row{Features: []float64{v}, LogNs: float64(i % 7), MedianNs: 1})
	}
	cfg := DefaultConfig()
	cfg.FeatureFrac = 1
	f, err := TrainRows(names, rows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if p := f.Predict([]float64{v}); math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("non-finite prediction %v for input %v", p, v)
		}
	}
}

func TestTrainRowsValidation(t *testing.T) {
	names, rows := synthRows(10)
	if _, err := TrainRows(names, rows, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	cfg := DefaultConfig()
	if _, err := TrainRows(names, rows[:1], cfg); err == nil {
		t.Fatal("single-row training set accepted")
	}
	bad := make([]Row, len(rows))
	copy(bad, rows)
	bad[3].Features = bad[3].Features[:2]
	if _, err := TrainRows(names, bad, cfg); err == nil {
		t.Fatal("ragged feature matrix accepted")
	}

	// Non-finite inputs are refused with the row and feature named: the
	// split search needs a total order on every feature.
	for _, c := range []struct {
		set  func(*Row)
		want string
	}{
		{func(r *Row) { r.Features[1] = math.NaN() }, "row 3 feature x1 is NaN"},
		{func(r *Row) { r.Features[2] = math.Inf(1) }, "row 3 feature x2 is +Inf"},
		{func(r *Row) { r.Features[0] = math.Inf(-1) }, "row 3 feature x0 is -Inf"},
		{func(r *Row) { r.LogNs = math.NaN() }, "row 3 target LogNs is NaN"},
		{func(r *Row) { r.LogNs = math.Inf(1) }, "row 3 target LogNs is +Inf"},
		{func(r *Row) { r.LogNs = math.Inf(-1) }, "row 3 target LogNs is -Inf"},
	} {
		copy(bad, rows)
		bad[3].Features = slices.Clone(rows[3].Features)
		c.set(&bad[3])
		if _, err := TrainRows(names, bad, cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got error %v, want one containing %q", err, c.want)
		}
	}

	// A stored cell can carry such a value: a device with a negative MLP
	// decodes fine and yields a NaN dev_log_mlp.
	_, grid := tinyGrid(t)
	m := *grid.Measurements[5]
	dev := *m.Device
	dev.MLP = -1
	m.Device = &dev
	grid.Measurements[5] = &m
	ds, err := FromGrid(grid)
	if err != nil {
		t.Fatal(err)
	}
	want := "row 5 feature dev_log_mlp is NaN"
	if _, err := Train(ds, cfg); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("got error %v, want one containing %q", err, want)
	}
}
