package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/harness"
	"opendwarfs/internal/predict"
	"opendwarfs/internal/sim"
)

// Source says where a (task, device) cost came from.
type Source string

const (
	// SourceMeasured: the cell was measured (present in the provider's
	// grid) — time and energy are sample medians.
	SourceMeasured Source = "measured"
	// SourcePredicted: the cell was never measured — time and energy come
	// from the forests trained over the cells that were.
	SourcePredicted Source = "predicted"
)

// Cost is one resolved (benchmark × size, device) cell.
type Cost struct {
	TimeNs  float64
	EnergyJ float64
	Source  Source
}

// CostProvider resolves the cost of running one benchmark × size on one
// device. Implementations must be deterministic and safe for concurrent
// readers.
type CostProvider interface {
	Cost(bench, size string, dev *sim.DeviceSpec) (Cost, error)
}

// Costs is the standard provider: measured cells answer exactly, unmeasured
// cells fall back to random-forest predictions — one forest over log kernel
// time (the §5 model) and one over log energy, both trained on the same
// measured grid. The workload half of a prediction's feature vector needs
// the benchmark × size's AIWC profiles; those come from any measured cell
// of that row (profiles are device-independent), or from a characterisation
// registered with EnsureProfiles for rows never measured anywhere.
// Predicted cells are memoised: the forests are pure functions, so a
// memoised cost is bitwise the one a forest walk would compute again.
type Costs struct {
	measured map[string]*harness.Measurement
	rows     map[string]rowProfile
	timeF    *predict.Forest
	energyF  *predict.Forest
	cells    int

	mu        sync.Mutex
	predicted map[string]Cost // by costKey, like measured
}

// rowProfile is the device-independent half of a row's feature vector.
type rowProfile struct {
	profiles []*sim.KernelProfile
	launches int
}

func costKey(bench, size, device string) string { return bench + "\x00" + size + "\x00" + device }
func rowKey(bench, size string) string          { return bench + "\x00" + size }

// NewCosts trains the provider over a grid of measured cells. The grid
// needs enough cells to train on (predict's minimum, 2 × MinLeaf); both
// forests are pure functions of (grid, cfg minus Workers), so the provider
// — and every schedule built on it — is bitwise-identical at any worker
// count.
func NewCosts(g *harness.Grid, cfg predict.Config) (*Costs, error) {
	if g == nil || g.Cells() == 0 {
		return nil, fmt.Errorf("sched: no measured cells to build a cost model from")
	}
	timeDS, err := predict.FromGrid(g)
	if err != nil {
		return nil, err
	}
	timeF, err := predict.Train(timeDS, cfg)
	if err != nil {
		return nil, fmt.Errorf("sched: time model: %w", err)
	}
	energyDS, err := predict.EnergyFromGrid(g)
	if err != nil {
		return nil, err
	}
	energyF, err := predict.Train(energyDS, cfg)
	if err != nil {
		return nil, fmt.Errorf("sched: energy model: %w", err)
	}

	c := &Costs{
		measured:  make(map[string]*harness.Measurement, g.Cells()),
		rows:      map[string]rowProfile{},
		timeF:     timeF,
		energyF:   energyF,
		cells:     g.Cells(),
		predicted: map[string]Cost{},
	}
	for _, m := range g.Measurements {
		c.measured[costKey(m.Benchmark, m.Size, m.Device.ID)] = m
		if _, ok := c.rows[rowKey(m.Benchmark, m.Size)]; !ok {
			c.rows[rowKey(m.Benchmark, m.Size)] = rowProfile{profiles: m.Profiles, launches: m.KernelLaunches}
		}
	}
	return c, nil
}

// TrainingCells returns how many measured cells the forests were fit on.
func (c *Costs) TrainingCells() int { return c.cells }

// Measured reports whether the exact cell is measured (vs predicted).
func (c *Costs) Measured(bench, size, device string) bool {
	_, ok := c.measured[costKey(bench, size, device)]
	return ok
}

// Cost resolves one cell: measured when present, predicted otherwise. A
// row measured on no device at all needs a characterisation first — see
// EnsureProfiles. A predicted cell walks the forests once per provider.
func (c *Costs) Cost(bench, size string, dev *sim.DeviceSpec) (Cost, error) {
	key := costKey(bench, size, dev.ID)
	if m, ok := c.measured[key]; ok {
		return Cost{TimeNs: m.Kernel.Median, EnergyJ: m.Energy.Median, Source: SourceMeasured}, nil
	}
	c.mu.Lock()
	cost, ok := c.predicted[key]
	c.mu.Unlock()
	if ok {
		return cost, nil
	}
	rp, ok := c.rows[rowKey(bench, size)]
	if !ok {
		return Cost{}, fmt.Errorf("sched: %s/%s has no measured cell on any device and no registered characterisation; measure it once or call EnsureProfiles", bench, size)
	}
	x := predict.Features(rp.profiles, rp.launches, dev)
	cost = Cost{
		TimeNs:  c.timeF.PredictNs(x),
		EnergyJ: c.energyF.PredictNs(x), // exp(log-Joules): the same transform
		Source:  SourcePredicted,
	}
	c.mu.Lock()
	// A fresh key: storing key itself would move it to the heap on hits too.
	c.predicted[costKey(bench, size, dev.ID)] = cost
	c.mu.Unlock()
	return cost, nil
}

// EnsureProfiles characterises every workload row that no measured cell
// covers, so predictions can be made for rows the fleet has never run.
// Preparation is device-independent and the functional pass is skipped
// (profiles come from the simulate-only characterisation, identical either
// way), so this is cheap relative to measurement. Rows are prepared in
// first-seen workload order; cancelling ctx aborts between rows.
func (c *Costs) EnsureProfiles(ctx context.Context, reg *dwarfs.Registry, opt harness.Options, w *Workload) error {
	opt.MaxFunctionalOps = 0
	opt.Verify = false
	for _, row := range w.Rows() {
		bench, size := row[0], row[1]
		if _, ok := c.rows[rowKey(bench, size)]; ok {
			continue
		}
		b, err := reg.Get(bench)
		if err != nil {
			return fmt.Errorf("sched: %w", err)
		}
		p, err := harness.Prepare(ctx, b, size, opt)
		if err != nil {
			return fmt.Errorf("sched: characterise %s/%s: %w", bench, size, err)
		}
		c.rows[rowKey(bench, size)] = rowProfile{profiles: p.Profiles(), launches: p.KernelLaunches}
	}
	return nil
}

// AdoptProfiles copies the characterisations another provider holds for
// rows this one cannot resolve — how the online loop carries EnsureProfiles
// results into each round's freshly trained provider. Rows this provider
// already knows (measured, or characterised itself) are left alone.
func (c *Costs) AdoptProfiles(o *Costs) {
	if o == nil {
		return
	}
	for k, rp := range o.rows {
		if _, ok := c.rows[k]; !ok {
			c.rows[k] = rp
		}
	}
}

// MissingRows returns the workload rows the provider can neither serve
// measured nor predict (no profiles), sorted — empty when every task is
// resolvable.
func (c *Costs) MissingRows(w *Workload) []string {
	var out []string
	for _, row := range w.Rows() {
		if _, ok := c.rows[rowKey(row[0], row[1])]; !ok {
			out = append(out, row[0]+"/"+row[1])
		}
	}
	sort.Strings(out)
	return out
}
