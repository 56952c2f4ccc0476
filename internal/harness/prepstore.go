package harness

import (
	"encoding/json"
	"fmt"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
	"opendwarfs/internal/store"
)

// Persisted preparations: a Preparation depends on the benchmark, size,
// seed and the two options Prepare reads — never on a device — so a grid
// run stores each row's preparation next to its cells and a later run,
// in any process, replays it instead of preparing the row again (see
// prepCache.prepare and DESIGN.md §3).

// prepOptions is the subset of Options a Preparation depends on besides
// the seed, in fingerprint-stable field order. The sampling options
// (Samples, MinLoopNs, MaxLoopIters) only shape Measure, so runs that
// differ in them share a stored preparation.
type prepOptions struct {
	MaxFunctionalOps float64
	Verify           bool
}

// prepRecordKey fingerprints one row's preparation: CellKey's layout
// minus the device and the sampling options, under its own domain label
// so a preparation key can never equal a cell key.
func prepRecordKey(bench, size string, opt Options) string {
	return store.Fingerprint(
		"opendwarfs/prep", StoreSchemaVersion,
		bench, size, opt.Seed,
		prepOptions{MaxFunctionalOps: opt.MaxFunctionalOps, Verify: opt.Verify},
	)
}

// storedPrep is the stored form of a Preparation. The benchmark, dwarf
// and size are not stored: the key already names them, and the reader
// fills them in. Names is a table of the distinct command and kernel
// names, Profiles a table of the distinct kernel profiles, and
// ProfileNames gives each profile's name as an index into Names. Each
// trace entry is (kind, name index, bytes, profile index), with profile
// index -1 for every non-kernel command. lud/large, the largest row, has
// 767 commands but only 511 distinct profiles.
type storedPrep struct {
	Footprint    int64           `json:"fp"`
	Launches     int             `json:"kl"`
	TotalOps     float64         `json:"ops"`
	Functional   bool            `json:"fn"`
	Verified     bool            `json:"vf"`
	Names        []string        `json:"names"`
	Profiles     []storedProfile `json:"profiles"`
	ProfileNames []int64         `json:"pnames"`
	Trace        [][4]int64      `json:"trace"`
}

// storedProfile is sim.KernelProfile with short JSON names. The two types
// convert into each other, so a field added to KernelProfile stops this
// file compiling instead of being dropped from stored preparations.
// Floats carry no omitempty: it would store -0 as an absent 0.
type storedProfile struct {
	Name              string        `json:"-"` // in storedPrep.ProfileNames
	WorkItems         int64         `json:"w"`
	FlopsPerItem      float64       `json:"f"`
	IntOpsPerItem     float64       `json:"i"`
	LoadBytesPerItem  float64       `json:"l"`
	StoreBytesPerItem float64       `json:"s"`
	WorkingSetBytes   int64         `json:"ws"`
	Pattern           cache.Pattern `json:"p"`
	TemporalReuse     float64       `json:"r"`
	BranchesPerItem   float64       `json:"b"`
	Divergence        float64       `json:"d"`
	Coalescing        float64       `json:"c"`
	Vectorizable      bool          `json:"v"`
	SerialFraction    float64       `json:"sf"`
}

// encodePreparation serialises a preparation for the store. Profiles are
// shared by value: two launches whose profiles have one name and encode
// identically get one table entry, which is exact because float64
// round-trips through encoding/json bit for bit.
func encodePreparation(p *Preparation) (json.RawMessage, error) {
	sp := storedPrep{
		Footprint:  p.FootprintBytes,
		Launches:   p.KernelLaunches,
		TotalOps:   p.TotalOps,
		Functional: p.Functional,
		Verified:   p.Verified,
		Trace:      make([][4]int64, 0, len(p.trace)),
	}
	names := map[string]int64{}
	name := func(s string) int64 {
		i, ok := names[s]
		if !ok {
			i = int64(len(sp.Names))
			names[s] = i
			sp.Names = append(sp.Names, s)
		}
		return i
	}
	type profileKey struct {
		name int64
		enc  string
	}
	profiles := map[profileKey]int64{}
	for _, c := range p.trace {
		ni, pi := name(c.name), int64(-1)
		if c.profile != nil {
			prof := storedProfile(*c.profile)
			enc, err := json.Marshal(prof)
			if err != nil {
				return nil, fmt.Errorf("harness: encode preparation %s/%s: %w", p.Benchmark, p.Size, err)
			}
			key := profileKey{name: name(prof.Name), enc: string(enc)}
			var ok bool
			if pi, ok = profiles[key]; !ok {
				pi = int64(len(sp.Profiles))
				profiles[key] = pi
				sp.Profiles = append(sp.Profiles, prof)
				sp.ProfileNames = append(sp.ProfileNames, key.name)
			}
		}
		sp.Trace = append(sp.Trace, [4]int64{int64(c.kind), ni, c.bytes, pi})
	}
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, fmt.Errorf("harness: encode preparation %s/%s: %w", p.Benchmark, p.Size, err)
	}
	return raw, nil
}

// decodePreparation rebuilds a stored preparation; the caller sets its
// Benchmark, Dwarf and Size. Every index and count is checked, every
// profile must pass KernelProfile.Validate and the trace must hold a
// kernel command, so the Preparation is one Prepare could have returned:
// Measure replays it into the same bytes as the preparation that was
// stored.
func decodePreparation(raw json.RawMessage) (*Preparation, error) {
	var sp storedPrep
	if err := json.Unmarshal(raw, &sp); err != nil {
		return nil, fmt.Errorf("harness: decode stored preparation: %w", err)
	}
	if sp.Footprint < 0 || sp.Launches < 0 || sp.TotalOps < 0 {
		return nil, fmt.Errorf("harness: stored preparation has a negative footprint, launch or op count")
	}
	if len(sp.ProfileNames) != len(sp.Profiles) {
		return nil, fmt.Errorf("harness: stored preparation names %d of %d profiles", len(sp.ProfileNames), len(sp.Profiles))
	}
	profiles := make([]*sim.KernelProfile, len(sp.Profiles))
	for i := range sp.Profiles {
		ni := sp.ProfileNames[i]
		if ni < 0 || ni >= int64(len(sp.Names)) {
			return nil, fmt.Errorf("harness: stored preparation: profile %d names entry %d of %d", i, ni, len(sp.Names))
		}
		kp := sim.KernelProfile(sp.Profiles[i])
		kp.Name = sp.Names[ni]
		if err := kp.Validate(); err != nil {
			return nil, fmt.Errorf("harness: stored preparation: %w", err)
		}
		profiles[i] = &kp
	}
	trace := make([]traceCommand, 0, len(sp.Trace))
	for i, e := range sp.Trace {
		kind, ni, bytes, pi := opencl.CommandKind(e[0]), e[1], e[2], e[3]
		if kind != opencl.CommandKernel && kind != opencl.CommandWrite {
			return nil, fmt.Errorf("harness: stored preparation: command %d has kind %d, neither a kernel nor a write", i, e[0])
		}
		if ni < 0 || ni >= int64(len(sp.Names)) {
			return nil, fmt.Errorf("harness: stored preparation: command %d names entry %d of %d", i, ni, len(sp.Names))
		}
		if bytes < 0 {
			return nil, fmt.Errorf("harness: stored preparation: command %d moves %d bytes", i, bytes)
		}
		c := traceCommand{kind: kind, name: sp.Names[ni], bytes: bytes}
		if kind == opencl.CommandKernel {
			if pi < 0 || pi >= int64(len(profiles)) {
				return nil, fmt.Errorf("harness: stored preparation: command %d profiles entry %d of %d", i, pi, len(profiles))
			}
			c.profile = profiles[pi]
		} else if pi != -1 {
			return nil, fmt.Errorf("harness: stored preparation: %s command %d carries a profile", kind, i)
		}
		trace = append(trace, c)
	}
	p := &Preparation{
		FootprintBytes: sp.Footprint,
		KernelLaunches: sp.Launches,
		TotalOps:       sp.TotalOps,
		Functional:     sp.Functional,
		Verified:       sp.Verified,
	}
	if !p.setTrace(trace) {
		return nil, fmt.Errorf("harness: stored preparation has no kernel command")
	}
	return p, nil
}
