package predict

import (
	"fmt"
	"math"
	"sort"

	"opendwarfs/internal/par"
)

// Config parameterises forest training. The zero value is not usable; see
// DefaultConfig.
type Config struct {
	// Trees is the ensemble size.
	Trees int
	// MaxDepth bounds tree depth.
	MaxDepth int
	// MinLeaf is the minimum samples per leaf.
	MinLeaf int
	// FeatureFrac is the fraction of features each split considers.
	FeatureFrac float64
	// Seed drives bootstrap sampling and feature subsampling. Training is
	// a pure function of (data, Config minus Workers): every tree draws
	// from a generator seeded from Seed and its index, so Workers changes
	// wall-clock time, never the model.
	Seed int64
	// Workers is the goroutine count for training and cross-validation,
	// with RunGrid's convention: 0 = GOMAXPROCS, 1 = sequential.
	Workers int
}

// DefaultConfig returns the parameters used by cmd/dwarfpredict and CI.
func DefaultConfig() Config {
	return Config{Trees: 96, MaxDepth: 12, MinLeaf: 2, FeatureFrac: 1.0 / 3, Seed: 1, Workers: 0}
}

func (c Config) validate() error {
	switch {
	case c.Trees <= 0:
		return fmt.Errorf("predict: non-positive tree count")
	case c.MaxDepth <= 0 || c.MinLeaf <= 0:
		return fmt.Errorf("predict: non-positive depth or leaf size")
	case c.FeatureFrac <= 0 || c.FeatureFrac > 1:
		return fmt.Errorf("predict: feature fraction out of (0,1]")
	}
	return nil
}

// Forest is a trained random-forest regressor over log-runtime.
type Forest struct {
	trees        []*tree
	featureNames []string
	importance   []float64
}

// treeSeed derives tree t's rng seed from the forest seed via a splitmix64
// step, decorrelating adjacent trees without any cross-tree rng sharing.
func treeSeed(seed int64, t int) int64 {
	z := uint64(seed) + uint64(t+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// TrainRows fits a forest on explicit rows (the cross-validation fold
// primitive). Every feature and target must be finite. Trees train
// concurrently under cfg's worker pool; per-tree importances are reduced
// in tree order afterwards, so the trained model is bitwise-identical at
// every worker count.
func TrainRows(names []string, rows []Row, cfg Config) (*Forest, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := len(rows)
	if n < 2*cfg.MinLeaf {
		return nil, fmt.Errorf("predict: %d rows is too few to train on", n)
	}
	// The split search walks one feature at a time, so the features are
	// stored by column.
	cols := make([][]float64, len(names))
	flat := make([]float64, len(names)*n)
	for j := range cols {
		cols[j] = flat[j*n : (j+1)*n]
	}
	y := make([]float64, n)
	for i := range rows {
		if len(rows[i].Features) != len(names) {
			return nil, fmt.Errorf("predict: row %d has %d features, want %d", i, len(rows[i].Features), len(names))
		}
		for j, v := range rows[i].Features {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("predict: row %d feature %s is %v", i, names[j], v)
			}
			cols[j][i] = v
		}
		if v := rows[i].LogNs; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("predict: row %d target LogNs is %v", i, v)
		}
		y[i] = rows[i].LogNs
	}
	order := presort(cols)

	f := &Forest{
		trees:        make([]*tree, cfg.Trees),
		featureNames: names,
		importance:   make([]float64, len(names)),
	}
	perTree := make([][]float64, cfg.Trees)
	gc := growConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, featureFrac: cfg.FeatureFrac}
	// One grower per worker, lent to one tree at a time: the channel
	// holds all of them, so taking one never blocks.
	growers := make(chan *grower, par.Workers(cfg.Workers, cfg.Trees))
	for len(growers) < cap(growers) {
		growers <- newGrower(cols, y, order, gc)
	}
	par.For(cfg.Workers, cfg.Trees, func(t int) {
		g := <-growers
		imp := make([]float64, len(names))
		f.trees[t] = g.grow(treeSeed(cfg.Seed, t), imp)
		perTree[t] = imp
		growers <- g
	})
	for t := range perTree {
		for i, v := range perTree[t] {
			f.importance[i] += v
		}
	}
	return f, nil
}

// Train fits a forest on the whole dataset.
func Train(ds *Dataset, cfg Config) (*Forest, error) {
	return TrainRows(ds.FeatureNames, ds.Rows, cfg)
}

// Predict returns the ensemble-mean log-runtime for a feature vector.
func (f *Forest) Predict(x []float64) float64 {
	s := 0.0
	for _, t := range f.trees {
		s += t.predict(x)
	}
	return s / float64(len(f.trees))
}

// PredictNs exponentiates the log-runtime prediction back to nanoseconds.
func (f *Forest) PredictNs(x []float64) float64 { return math.Exp(f.Predict(x)) }

// Trees returns the ensemble size.
func (f *Forest) Trees() int { return len(f.trees) }

// Importance is one feature's share of the forest's total SSE reduction.
type Importance struct {
	Feature string
	Share   float64
}

// Importances returns the normalised feature importances, descending, with
// ties broken by feature name for stable reports.
func (f *Forest) Importances() []Importance {
	total := 0.0
	for _, v := range f.importance {
		total += v
	}
	out := make([]Importance, len(f.importance))
	for i, v := range f.importance {
		share := 0.0
		if total > 0 {
			share = v / total
		}
		out[i] = Importance{Feature: f.featureNames[i], Share: share}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Share != out[b].Share {
			return out[a].Share > out[b].Share
		}
		return out[a].Feature < out[b].Feature
	})
	return out
}
