// Package gem implements the N-Body Methods dwarf: Gemnoui, which computes
// the electrostatic potential of a biomolecular structure at each vertex of
// its solvent-excluded surface by direct summation over all atomic partial
// charges (§4.4.4). The paper's PDB-derived datasets (4TUT, 2D3V, the
// OpenDwarfs nucleosome, 1KX5) are replaced by synthetic molecules with
// identical device-side footprints — see internal/data and DESIGN.md.
package gem

import (
	"fmt"
	"math"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "gem" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "N-Body Methods" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark (Table 2 lists the PDB IDs).
func (*Benchmark) ScaleParameter(size string) string {
	p, err := data.MoleculePresetFor(size)
	if err != nil {
		return ""
	}
	return p.PDBID
}

// ArgString implements dwarfs.Benchmark (Table 3: gem Φ 80 1 0).
func (b *Benchmark) ArgString(size string) string {
	return fmt.Sprintf("%s 80 1 0", b.ScaleParameter(size))
}

// New implements dwarfs.Benchmark. The molecule is drawn from the preset
// and seed by the first executing Iterate (see dwarfs.Instance); until
// then the preset's atom and vertex counts give the shape.
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	p, err := data.MoleculePresetFor(size)
	if err != nil {
		return nil, fmt.Errorf("gem: %w", err)
	}
	return &Instance{preset: p, seed: seed, atoms: p.Atoms, vertices: p.Vertices}, nil
}

// Instance is one configured potential computation.
type Instance struct {
	mol             *data.Molecule // nil until drawn, unless supplied
	preset          data.MoleculePreset
	seed            int64
	atoms, vertices int

	// bufs holds the atom arrays, the vertex arrays and the potential, in
	// field order below; the slices are their backings, fetched by the
	// first executing Iterate and nil until then.
	bufs                       []*opencl.Buffer
	atomX, atomY, atomZ, atomQ []float32
	vertX, vertY, vertZ        []float32
	potential                  []float32

	kernel *opencl.Kernel
	// loaded reports that an executing Iterate copied the molecule into
	// the device buffers.
	loaded bool
}

// NewInstance builds an instance over a molecule.
func NewInstance(mol *data.Molecule) *Instance {
	return &Instance{mol: mol, atoms: mol.Atoms(), vertices: mol.Vertices()}
}

// FootprintBytes implements dwarfs.Instance: four atom arrays, three vertex
// arrays and the output potential (§4.4.4's reported usage).
func (in *Instance) FootprintBytes() int64 {
	return int64(in.atoms)*4*4 + int64(in.vertices)*4*4
}

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	for _, name := range []string{"atom_x", "atom_y", "atom_z", "atom_q"} {
		in.bufs = append(in.bufs, opencl.NewBuffer[float32](ctx, name, in.atoms))
	}
	for _, name := range []string{"vert_x", "vert_y", "vert_z", "potential"} {
		in.bufs = append(in.bufs, opencl.NewBuffer[float32](ctx, name, in.vertices))
	}
	for _, b := range in.bufs[:7] { // the atom and vertex arrays
		q.EnqueueWrite(b)
	}

	in.kernel = &opencl.Kernel{
		Name: "gem_potential",
		Fn: func(wi *opencl.Item) {
			v := wi.GlobalID(0)
			in.potential[v] = potentialAt(
				in.vertX[v], in.vertY[v], in.vertZ[v],
				in.atomX, in.atomY, in.atomZ, in.atomQ)
		},
		Profile: in.profile,
	}
	return nil
}

// potentialAt sums q/r over all atoms (Coulomb, unit constants as in gem).
func potentialAt(x, y, z float32, ax, ay, az, aq []float32) float32 {
	sum := float32(0)
	for a := range ax {
		dx := x - ax[a]
		dy := y - ay[a]
		dz := z - az[a]
		r := float32(math.Sqrt(float64(dx*dx + dy*dy + dz*dz)))
		if r < 1e-6 {
			r = 1e-6 // paper notes uninitialised/coincident data hazards; clamp
		}
		sum += aq[a] / r
	}
	return sum
}

// profile characterises the kernel: a dense O(V·A) sweep in which every
// work-item re-reads the whole atom array — classic n-body with high
// arithmetic intensity and strong temporal reuse of the atom tiles.
func (in *Instance) profile(ndr opencl.NDRange) *sim.KernelProfile {
	atoms := float64(in.atoms)
	return &sim.KernelProfile{
		Name:              "gem_potential",
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      11 * atoms, // 3 sub, 3 mul, 2 add, sqrt(~2), div
		IntOpsPerItem:     atoms,
		LoadBytesPerItem:  16*atoms + 12,
		StoreBytesPerItem: 4,
		WorkingSetBytes:   in.FootprintBytes(),
		Pattern:           cache.Streaming,
		TemporalReuse:     0.95, // atom arrays resident across vertices
		Vectorizable:      true,
	}
}

// load copies the molecule into the device buffers, drawing it from the
// preset and seed first unless the caller supplied one.
func (in *Instance) load() {
	if in.mol == nil {
		in.mol = data.GenerateMolecule(in.preset, in.seed)
	}
	b := func(i int) []float32 { return opencl.Data[float32](in.bufs[i]) }
	in.atomX, in.atomY, in.atomZ, in.atomQ = b(0), b(1), b(2), b(3)
	in.vertX, in.vertY, in.vertZ, in.potential = b(4), b(5), b(6), b(7)
	m := in.mol
	copy(in.atomX, m.AtomX)
	copy(in.atomY, m.AtomY)
	copy(in.atomZ, m.AtomZ)
	copy(in.atomQ, m.AtomQ)
	copy(in.vertX, m.VertX)
	copy(in.vertY, m.VertY)
	copy(in.vertZ, m.VertZ)
	in.loaded = true
}

// Iterate implements dwarfs.Instance: one full potential evaluation.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kernel == nil {
		return fmt.Errorf("gem: Iterate before Setup")
	}
	if !q.SimulateOnly() && !in.loaded {
		in.load()
	}
	nv := in.vertices
	local := 64
	for nv%local != 0 {
		local /= 2
	}
	_, err := q.EnqueueNDRange(in.kernel, opencl.NDR1(nv, local))
	return err
}

// Potential returns the computed surface potential.
func (in *Instance) Potential() []float32 { return in.potential }

// Verify implements dwarfs.Instance: the serial reference uses the same
// summation order, so a sample of vertices must match exactly; the total
// charge-weighted potential is also checked for finiteness.
func (in *Instance) Verify() error {
	if !in.loaded {
		return fmt.Errorf("gem: Verify before an executing Iterate")
	}
	nv := in.vertices
	step := 1
	if nv > 4096 {
		step = nv / 4096
	}
	for v := 0; v < nv; v += step {
		want := potentialAt(in.vertX[v], in.vertY[v], in.vertZ[v], in.atomX, in.atomY, in.atomZ, in.atomQ)
		if want != in.potential[v] {
			return fmt.Errorf("gem: vertex %d potential %g, reference %g", v, in.potential[v], want)
		}
		if math.IsNaN(float64(in.potential[v])) || math.IsInf(float64(in.potential[v]), 0) {
			return fmt.Errorf("gem: vertex %d potential is not finite", v)
		}
	}
	return nil
}
