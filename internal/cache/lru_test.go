package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAssocBasics(t *testing.T) {
	c := NewSetAssoc("L1", 1024, 2, 64) // 8 sets, 2 ways
	if c.Access(0) {
		t.Fatal("cold access hit")
	}
	if !c.Access(0) {
		t.Fatal("immediate re-access missed")
	}
	if !c.Access(63) {
		t.Fatal("same-line access missed")
	}
	if c.Access(64) {
		t.Fatal("next-line cold access hit")
	}
	if c.Name() != "L1" {
		t.Fatalf("name %q", c.Name())
	}
	if c.Accesses() != 4 || c.Misses() != 2 {
		t.Fatalf("accesses=%d misses=%d, want 4/2", c.Accesses(), c.Misses())
	}
	if got := c.MissRate(); got != 0.5 {
		t.Fatalf("miss rate %f, want 0.5", got)
	}
}

func TestSetAssocLRUEviction(t *testing.T) {
	c := NewSetAssoc("t", 2*64, 2, 64) // one set, two ways
	c.Access(0 * 64)
	c.Access(1 * 64)
	c.Access(0 * 64) // 0 becomes MRU; LRU is line 1
	c.Access(2 * 64) // evicts line 1
	if !c.Access(0 * 64) {
		t.Fatal("MRU-protected line was evicted")
	}
	if c.Access(1 * 64) {
		t.Fatal("evicted LRU line still present")
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions recorded")
	}
}

func TestSetAssocWorkingSetFits(t *testing.T) {
	c := NewSetAssoc("L1", 32<<10, 8, 64)
	// Cyclically stream a 16 KiB working set: after the first pass,
	// everything hits.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 16<<10; a += 64 {
			c.Access(a)
		}
	}
	// 256 cold misses out of 1024 accesses.
	if c.Misses() != 256 {
		t.Fatalf("misses=%d, want 256 (cold only)", c.Misses())
	}
}

func TestSetAssocThrashing(t *testing.T) {
	c := NewSetAssoc("L1", 32<<10, 8, 64)
	// Cyclic streaming over 64 KiB (2x capacity) defeats LRU: every access
	// after warmup misses.
	for pass := 0; pass < 4; pass++ {
		for a := uint64(0); a < 64<<10; a += 64 {
			c.Access(a)
		}
	}
	if rate := c.MissRate(); rate < 0.99 {
		t.Fatalf("cyclic over-capacity streaming should thrash: miss rate %.3f", rate)
	}
}

func TestSetAssocGeometryPanics(t *testing.T) {
	cases := []func(){
		func() { NewSetAssoc("x", 0, 8, 64) },
		func() { NewSetAssoc("x", 32<<10, 0, 64) },
		func() { NewSetAssoc("x", 32<<10, 8, 0) },
		func() { NewSetAssoc("x", 3*64, 1, 64) }, // 3 sets: not a power of two
		func() { NewSetAssoc("x", 96, 1, 96) },   // line not power of two
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad geometry accepted", i)
				}
			}()
			f()
		}()
	}
}

func TestTraceHierarchyLevels(t *testing.T) {
	h := NewSkylakeTrace()
	lvl := h.Access(0)
	if lvl != 3 {
		t.Fatalf("cold access served by level %d, want memory (3)", lvl)
	}
	if got := h.Access(0); got != 0 {
		t.Fatalf("hot access served by level %d, want L1 (0)", got)
	}
	h.Reset()
	if got := h.Access(0); got != 3 {
		t.Fatalf("post-reset access served by level %d, want memory", got)
	}
}

// The trace simulator should agree with the paper's methodology: a working
// set sized for L2 shows near-zero L2 misses but massive L1 misses under
// cyclic streaming.
func TestTraceHierarchySizingMethodology(t *testing.T) {
	h := NewSkylakeTrace()
	ws := uint64(200 << 10) // fits L2 (256 KiB), exceeds L1 (32 KiB)
	for pass := 0; pass < 5; pass++ {
		for a := uint64(0); a < ws; a += 64 {
			h.Access(a)
		}
	}
	l1, l2 := h.Caches[0], h.Caches[1]
	if l1.MissRate() < 0.8 {
		t.Fatalf("L1 should thrash for a 200KiB cyclic set, miss rate %.3f", l1.MissRate())
	}
	// L2 misses only on the cold pass: 1/5 of its accesses at most.
	if l2.MissRate() > 0.25 {
		t.Fatalf("L2 should capture a 200KiB set, miss rate %.3f", l2.MissRate())
	}
}

// Property: miss count never exceeds access count, and hits+misses=accesses.
func TestSetAssocCountInvariant(t *testing.T) {
	f := func(seed int64, n uint16) bool {
		c := NewSetAssoc("p", 4<<10, 4, 64)
		rng := rand.New(rand.NewSource(seed))
		hits := uint64(0)
		for i := 0; i < int(n); i++ {
			if c.Access(uint64(rng.Intn(16 << 10))) {
				hits++
			}
		}
		return c.Accesses() == uint64(n) && hits+c.Misses() == c.Accesses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a larger cache never has more misses than a smaller one on the
// same trace (inclusion property of LRU for same-geometry scaling by ways).
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		small := NewSetAssoc("s", 4<<10, 4, 64)
		big := NewSetAssoc("b", 16<<10, 16, 64) // same sets, more ways
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 4096; i++ {
			a := uint64(rng.Intn(64 << 10))
			small.Access(a)
			big.Access(a)
		}
		return big.Misses() <= small.Misses()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
