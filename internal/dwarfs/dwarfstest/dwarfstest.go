// Package dwarfstest holds helpers shared by the benchmarks' tests: a
// digest for pinning generated datasets bit for bit, and the
// characterisation sequence harness.Prepare runs before its budget
// decision.
package dwarfstest

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
)

// Digest returns the hex SHA-256 of each part's little-endian encoding, in
// order. Parts are fixed-size values or slices of them, as encoding/binary
// writes them; float elements contribute their IEEE-754 bits.
func Digest(parts ...any) string {
	h := sha256.New()
	for _, p := range parts {
		if err := binary.Write(h, binary.LittleEndian, p); err != nil {
			panic(err) // a part that is not fixed-size: a bug in the calling test
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Characterise builds size of b at seed and runs what harness.Prepare runs
// before its functional-budget decision: Setup, CheckFootprint and one
// simulate-only Iterate. The returned queue is still simulate-only.
func Characterise(t testing.TB, b dwarfs.Benchmark, size string, seed int64) (dwarfs.Instance, *opencl.CommandQueue) {
	t.Helper()
	inst, err := b.New(size, seed)
	if err != nil {
		t.Fatal(err)
	}
	dev := opencl.AllDevices()[0]
	ctx, err := opencl.NewContext(dev)
	if err != nil {
		t.Fatal(err)
	}
	q, err := opencl.NewQueue(ctx, dev)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
		t.Fatal(err)
	}
	q.SetSimulateOnly(true)
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	return inst, q
}
