package cache

// SetAssoc is a trace-driven set-associative cache with true-LRU replacement.
// It is used to validate the analytical model and by cmd/sizer to demonstrate
// the paper's §4.4 problem-size selection methodology on concrete address
// traces.
type SetAssoc struct {
	name      string
	lineBits  uint
	setMask   uint64
	ways      int
	sets      [][]uint64 // per-set tag list, MRU first; zero value = empty
	valid     [][]bool
	accesses  uint64
	misses    uint64
	evictions uint64
}

// NewSetAssoc builds a cache of the given total size, associativity and line
// size. Size must be an exact multiple of ways*lineBytes and the set count a
// power of two; typical hardware shapes (32 KiB / 8-way / 64 B, …) satisfy
// this.
func NewSetAssoc(name string, sizeBytes, ways, lineBytes int) *SetAssoc {
	if sizeBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive cache geometry")
	}
	nsets := sizeBytes / (ways * lineBytes)
	if nsets <= 0 || nsets&(nsets-1) != 0 {
		panic("cache: set count must be a positive power of two")
	}
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	if 1<<lineBits != lineBytes {
		panic("cache: line size must be a power of two")
	}
	c := &SetAssoc{
		name:     name,
		lineBits: lineBits,
		setMask:  uint64(nsets - 1),
		ways:     ways,
		sets:     make([][]uint64, nsets),
		valid:    make([][]bool, nsets),
	}
	for i := range c.sets {
		c.sets[i] = make([]uint64, ways)
		c.valid[i] = make([]bool, ways)
	}
	return c
}

// Access touches one byte address and reports whether it hit. A miss
// installs the line at MRU, evicting the LRU way if the set is full.
func (c *SetAssoc) Access(addr uint64) bool {
	line := addr >> c.lineBits
	set := line & c.setMask
	tags := c.sets[set]
	valid := c.valid[set]
	c.accesses++
	for i := 0; i < c.ways; i++ {
		if valid[i] && tags[i] == line {
			// Move to MRU position.
			copy(tags[1:i+1], tags[:i])
			copy(valid[1:i+1], valid[:i])
			tags[0] = line
			valid[0] = true
			return true
		}
	}
	c.misses++
	if valid[c.ways-1] {
		c.evictions++
	}
	copy(tags[1:], tags[:c.ways-1])
	copy(valid[1:], valid[:c.ways-1])
	tags[0] = line
	valid[0] = true
	return false
}

// Name returns the label the cache was created with.
func (c *SetAssoc) Name() string { return c.name }

// Accesses returns the number of accesses observed.
func (c *SetAssoc) Accesses() uint64 { return c.accesses }

// Misses returns the number of misses observed.
func (c *SetAssoc) Misses() uint64 { return c.misses }

// Evictions returns the number of lines evicted.
func (c *SetAssoc) Evictions() uint64 { return c.evictions }

// MissRate returns misses/accesses (0 when no accesses were made).
func (c *SetAssoc) MissRate() float64 {
	if c.accesses == 0 {
		return 0
	}
	return float64(c.misses) / float64(c.accesses)
}

// Reset clears contents and statistics.
func (c *SetAssoc) Reset() {
	for i := range c.sets {
		for j := range c.sets[i] {
			c.valid[i][j] = false
		}
	}
	c.accesses, c.misses, c.evictions = 0, 0, 0
}

// TraceHierarchy chains set-associative caches into an inclusive hierarchy:
// an access probes each level in order until it hits, and a miss at level i
// is an access at level i+1.
type TraceHierarchy struct {
	Caches []*SetAssoc
}

// NewSkylakeTrace builds the i7-6700K hierarchy used throughout the paper's
// sizing methodology: 32 KiB 8-way L1D, 256 KiB 4-way L2, 8 MiB 16-way L3,
// all with 64-byte lines.
func NewSkylakeTrace() *TraceHierarchy {
	return &TraceHierarchy{Caches: []*SetAssoc{
		NewSetAssoc("L1D", 32<<10, 8, 64),
		NewSetAssoc("L2", 256<<10, 4, 64),
		NewSetAssoc("L3", 8<<20, 16, 64),
	}}
}

// Access walks the hierarchy and returns the index of the level that served
// the access, or len(Caches) if it went to memory.
func (t *TraceHierarchy) Access(addr uint64) int {
	for i, c := range t.Caches {
		if c.Access(addr) {
			return i
		}
	}
	return len(t.Caches)
}

// Reset clears all levels.
func (t *TraceHierarchy) Reset() {
	for _, c := range t.Caches {
		c.Reset()
	}
}
