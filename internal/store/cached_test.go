package store

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"opendwarfs/internal/obs"
)

func decodeMap(raw json.RawMessage) (any, error) {
	m := map[string]float64{}
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, err
	}
	return m, nil
}

func putCached(t *testing.T, c *Store, key, bench string, v any) {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(Record{Key: key, Benchmark: bench, Size: "tiny", Device: "d", Schema: 1, Value: raw}); err != nil {
		t.Fatal(err)
	}
}

// TestCachedHitMissEviction: the first decoded read is a miss, repeats are
// hits returning the identical shared value, and Put evicts exactly the
// written key's slot.
func TestCachedHitMissEviction(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putCached(t, c, "k1", "crc", map[string]float64{"ns": 1})
	putCached(t, c, "k2", "fft", map[string]float64{"ns": 2})

	v1, ok, err := c.GetDecoded("k1", decodeMap)
	if err != nil || !ok {
		t.Fatalf("first read: %v, %v", ok, err)
	}
	v2, ok, err := c.GetDecoded("k1", decodeMap)
	if err != nil || !ok {
		t.Fatalf("second read: %v, %v", ok, err)
	}
	// Zero-copy: both reads return the one shared decoded map.
	if fmt.Sprintf("%p", v1) != fmt.Sprintf("%p", v2) {
		t.Fatalf("repeat read decoded a fresh value: %p vs %p", v1, v2)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss", s)
	}

	// Missing keys are a clean (nil, false, nil) — not a miss.
	if _, ok, err := c.GetDecoded("nope", decodeMap); ok || err != nil {
		t.Fatalf("phantom key: %v, %v", ok, err)
	}
	if s := c.Stats(); s.Misses != 1 {
		t.Fatalf("missing key counted as a cache miss: %+v", s)
	}

	// Overwriting k1 drops its slot; the next read decodes the new payload.
	putCached(t, c, "k1", "crc", map[string]float64{"ns": 42})
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions %d after overwrite, want 1", s.Evictions)
	}
	v3, _, err := c.GetDecoded("k1", decodeMap)
	if err != nil {
		t.Fatal(err)
	}
	if v3.(map[string]float64)["ns"] != 42 {
		t.Fatalf("stale value after Put: %v", v3)
	}
	if s := c.Stats(); s.Misses != 2 {
		t.Fatalf("post-eviction read was not a miss: %+v", s)
	}
}

// TestCachedCompactInvalidatesAll: compaction (direct and size-bounded)
// rewrites the backing files, so every slot is dropped.
func TestCachedCompactInvalidatesAll(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := range 3 {
		putCached(t, c, fmt.Sprintf("k%d", i), "crc", map[string]float64{"ns": float64(i)})
		if _, _, err := c.GetDecoded(fmt.Sprintf("k%d", i), decodeMap); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Compact(); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions != 3 {
		t.Fatalf("evictions %d after Compact, want 3", s.Evictions)
	}
	// The cells themselves survive compaction; only the slots were dropped.
	if _, ok, err := c.GetDecoded("k0", decodeMap); !ok || err != nil {
		t.Fatalf("k0 lost by compaction: %v, %v", ok, err)
	}

	// CompactIfOver: a tiny bound forces compaction and drops the refilled
	// slot; an unbounded store never compacts and keeps it.
	compacted, err := c.CompactIfOver(1)
	if err != nil || !compacted {
		t.Fatalf("CompactIfOver(1): %v, %v", compacted, err)
	}
	if s := c.Stats(); s.Evictions != 4 {
		t.Fatalf("evictions %d after CompactIfOver, want 4", s.Evictions)
	}
	if compacted, err := c.CompactIfOver(0); err != nil || compacted {
		t.Fatalf("CompactIfOver(0) compacted an unbounded store: %v, %v", compacted, err)
	}
}

// TestHandleReadsItsOwnWrites: slots belong to one handle, so a second
// handle over the same directory decoding its own, older copy of a key can
// never hide the first handle's overwrite from it.
func TestHandleReadsItsOwnWrites(t *testing.T) {
	dir := t.TempDir()
	h1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	putCached(t, h1, "k", "crc", map[string]float64{"ns": 1})
	h2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()

	putCached(t, h1, "k", "crc", map[string]float64{"ns": 2})
	if v, ok, err := h2.GetDecoded("k", decodeMap); !ok || err != nil || v.(map[string]float64)["ns"] != 1 {
		t.Fatalf("second handle read %v, %v, %v; want its own copy, ns 1", v, ok, err)
	}
	if v, ok, err := h1.GetDecoded("k", decodeMap); !ok || err != nil || v.(map[string]float64)["ns"] != 2 {
		t.Fatalf("writer read %v, %v, %v after its own Put; want ns 2", v, ok, err)
	}
}

// TestGetDecodedFirstPublishWins: concurrent missers on one key may each
// decode, but every one of them returns the first-published value.
func TestGetDecodedFirstPublishWins(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	putCached(t, c, "k", "crc", map[string]float64{"ns": 1})

	const readers = 16
	var wg sync.WaitGroup
	got := make([]any, readers)
	for i := range readers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, ok, err := c.GetDecoded("k", func(json.RawMessage) (any, error) {
				return new(int), nil // distinct pointer per decode
			})
			if !ok || err != nil {
				t.Errorf("reader %d: %v, %v", i, ok, err)
			}
			got[i] = v
		}(i)
	}
	wg.Wait()
	for i := 1; i < readers; i++ {
		if got[i] != got[0] {
			t.Fatalf("reader %d received a different value than reader 0", i)
		}
	}
	if s := c.Stats(); s.Hits+s.Misses != readers || s.Misses < 1 {
		t.Fatalf("stats %+v over %d reads of one key", s, readers)
	}
}

// TestCachedInstrumentAgreesWithStats: the Prometheus counters and the
// atomic Stats view move together, under concurrency.
func TestCachedInstrumentAgreesWithStats(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	reg := obs.NewRegistry()
	c.Instrument(reg)

	const keys, readers = 8, 4
	for i := range keys {
		putCached(t, c, fmt.Sprintf("k%d", i), "crc", map[string]float64{"ns": float64(i)})
	}
	var wg sync.WaitGroup
	for range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				if _, _, err := c.GetDecoded(fmt.Sprintf("k%d", i), decodeMap); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	s := c.Stats()
	if s.Hits+s.Misses != keys*readers {
		t.Fatalf("hits %d + misses %d != %d reads", s.Hits, s.Misses, keys*readers)
	}
	if s.Misses < keys {
		t.Fatalf("only %d misses over %d keys", s.Misses, keys)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for metric, want := range map[string]int64{
		"slotcache_hits_total":      s.Hits,
		"slotcache_misses_total":    s.Misses,
		"slotcache_evictions_total": s.Evictions,
	} {
		if !strings.Contains(sb.String(), fmt.Sprintf("%s %d", metric, want)) {
			t.Fatalf("/metrics does not show %s %d:\n%s", metric, want, sb.String())
		}
	}
}

// TestCachedDecodeErrorNotCached: a corrupt payload errors on every read
// (never caching the failure) and recovers after an overwrite.
func TestCachedDecodeErrorNotCached(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(Record{Key: "k", Benchmark: "crc", Size: "tiny", Device: "d", Schema: 1,
		Value: json.RawMessage(`"not a map"`)}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetDecoded("k", decodeMap); err == nil {
		t.Fatal("corrupt payload decoded")
	}
	putCached(t, c, "k", "crc", map[string]float64{"ns": 1})
	if v, ok, err := c.GetDecoded("k", decodeMap); !ok || err != nil || v.(map[string]float64)["ns"] != 1 {
		t.Fatalf("no recovery after overwrite: %v, %v, %v", v, ok, err)
	}
}
