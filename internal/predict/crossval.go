package predict

import (
	"fmt"
	"math"
	"sort"

	"opendwarfs/internal/par"
)

// Prediction is one held-out cell's predicted-versus-actual pair.
type Prediction struct {
	Benchmark string  `json:"benchmark"`
	Size      string  `json:"size"`
	Device    string  `json:"device"`
	Fold      string  `json:"fold"`
	ActualNs  float64 `json:"actual_ns"`
	PredNs    float64 `json:"predicted_ns"`
	// APE is the absolute percentage error in linear time.
	APE float64 `json:"ape"`
	// LogAPE is the absolute percentage error of the log-runtime
	// prediction itself — the quantity the model is trained on.
	LogAPE float64 `json:"log_ape"`
}

// Fold is one cross-validation fold: the model trained with Held's rows
// removed, evaluated on them.
type Fold struct {
	// Held is the device ID or benchmark name left out.
	Held string
	// N is the held-out cell count.
	N int
	// MAPE and MedAPE summarise linear-time percentage errors; LogMAPE
	// summarises the errors of the log-runtime predictions.
	MAPE    float64
	MedAPE  float64
	LogMAPE float64
	// Predictions holds the per-cell pairs, grid order.
	Predictions []Prediction
}

// CVResult is a full leave-one-group-out cross-validation.
type CVResult struct {
	// GroupBy is "device" or "benchmark".
	GroupBy string
	// Folds come back sorted by held-out key.
	Folds []Fold
}

// LeaveOneDeviceOut trains one model per device with that device's cells
// held out and evaluates on them — the paper's §7 question: can AIWC plus
// public device parameters predict runtime on hardware the kernel never
// ran on? Folds run concurrently under cfg's worker pool and land in
// key-sorted slots, so the result is identical at every worker count.
func LeaveOneDeviceOut(ds *Dataset, cfg Config) (*CVResult, error) {
	return crossValidate(ds, cfg, "device", ds.Devices(), func(r *Row) string { return r.Device })
}

// LeaveOneBenchmarkOut holds out one benchmark per fold — the transfer
// question across workloads rather than across hardware.
func LeaveOneBenchmarkOut(ds *Dataset, cfg Config) (*CVResult, error) {
	return crossValidate(ds, cfg, "benchmark", ds.Benchmarks(), func(r *Row) string { return r.Benchmark })
}

func crossValidate(ds *Dataset, cfg Config, groupBy string, keys []string, key func(*Row) string) (*CVResult, error) {
	if len(keys) < 2 {
		return nil, fmt.Errorf("predict: need at least two %ss to cross-validate, have %d", groupBy, len(keys))
	}
	sorted := make([]string, len(keys))
	copy(sorted, keys)
	sort.Strings(sorted)

	res := &CVResult{GroupBy: groupBy, Folds: make([]Fold, len(sorted))}
	errs := make([]error, len(sorted))
	// Folds are the outer parallel axis; each fold's forest trains
	// sequentially (Workers: 1) so the pool isn't oversubscribed
	// workers × workers. Fold results are pure functions of (data, cfg
	// minus Workers), so slot-addressed writes keep determinism.
	inner := cfg
	inner.Workers = 1
	par.For(cfg.Workers, len(sorted), func(i int) {
		held, rest := ds.Split(func(r *Row) bool { return key(r) == sorted[i] })
		fold, err := evalFold(ds.FeatureNames, sorted[i], held, rest, inner)
		if err != nil {
			errs[i] = fmt.Errorf("predict: fold %s: %w", sorted[i], err)
			return
		}
		res.Folds[i] = fold
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return res, nil
}

// evalFold trains on rest and scores held.
func evalFold(names []string, heldKey string, held, rest []Row, cfg Config) (Fold, error) {
	f, err := TrainRows(names, rest, cfg)
	if err != nil {
		return Fold{}, err
	}
	fold := Fold{Held: heldKey, N: len(held)}
	apes := make([]float64, 0, len(held))
	for i := range held {
		r := &held[i]
		logPred := f.Predict(r.Features)
		p := Prediction{
			Benchmark: r.Benchmark, Size: r.Size, Device: r.Device, Fold: heldKey,
			ActualNs: r.MedianNs, PredNs: math.Exp(logPred),
			APE:    100 * math.Abs(math.Exp(logPred)-r.MedianNs) / r.MedianNs,
			LogAPE: 100 * math.Abs(logPred-r.LogNs) / math.Abs(r.LogNs),
		}
		fold.Predictions = append(fold.Predictions, p)
		fold.MAPE += p.APE
		fold.LogMAPE += p.LogAPE
		apes = append(apes, p.APE)
	}
	if n := float64(len(held)); n > 0 {
		fold.MAPE /= n
		fold.LogMAPE /= n
		fold.MedAPE = median(apes)
	}
	return fold, nil
}

// MedianFoldMAPE returns the median across folds of the per-fold linear
// MAPE — the headline generalisation number.
func (r *CVResult) MedianFoldMAPE() float64 {
	return r.medianOf(func(f *Fold) float64 { return f.MAPE })
}

// MedianFoldLogMAPE is the median per-fold MAPE of the log-runtime
// predictions themselves — the acceptance metric asserted in CI.
func (r *CVResult) MedianFoldLogMAPE() float64 {
	return r.medianOf(func(f *Fold) float64 { return f.LogMAPE })
}

func (r *CVResult) medianOf(get func(*Fold) float64) float64 {
	vals := make([]float64, 0, len(r.Folds))
	for i := range r.Folds {
		if r.Folds[i].N > 0 {
			vals = append(vals, get(&r.Folds[i]))
		}
	}
	return median(vals)
}

// Predictions flattens every fold's predictions, fold order.
func (r *CVResult) Predictions() []Prediction {
	var out []Prediction
	for i := range r.Folds {
		out = append(out, r.Folds[i].Predictions...)
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(v))
	copy(s, v)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
