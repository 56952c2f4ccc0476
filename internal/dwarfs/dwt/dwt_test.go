package dwt

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/dwarfs/dwarfstest"
	"opendwarfs/internal/opencl"
)

func newEnv(t *testing.T) (*opencl.Context, *opencl.CommandQueue) {
	t.Helper()
	dev, err := opencl.LookupDevice("gtx1080")
	if err != nil {
		t.Fatal(err)
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func TestMetadata(t *testing.T) {
	b := New()
	if b.Name() != "dwt" || b.Dwarf() != "Spectral Methods" {
		t.Fatal("metadata")
	}
	if got := b.ArgString("large"); got != "-l 3 3648x2736-gum.ppm" {
		t.Fatalf("Table 3 args %q", got)
	}
	if got := b.ScaleParameter("tiny"); got != "72x54" {
		t.Fatalf("Φ %q", got)
	}
	if _, err := b.New("mega", 1); err == nil {
		t.Fatal("bad size accepted")
	}
}

func TestKernelMatchesSerialTiny(t *testing.T) {
	ctx, q := newEnv(t)
	inst, err := New().New(dwarfs.SizeTiny, 17)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	if err := dwarfs.CheckFootprint(inst, ctx); err != nil {
		t.Fatal(err)
	}
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	if err := inst.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestOddDimensions(t *testing.T) {
	// 72×54 shrinks to odd extents (9 after three halvings of 72? 72→36→18→9);
	// exercise explicitly odd inputs too.
	for _, d := range []struct{ w, h int }{{7, 5}, {15, 9}, {33, 21}} {
		ctx, q := newEnv(t)
		inst, err := NewInstance(data.GenerateLeaf(d.w, d.h, 3), 3)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Setup(ctx, q); err != nil {
			t.Fatal(err)
		}
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if err := inst.Verify(); err != nil {
			t.Fatalf("%dx%d: %v", d.w, d.h, err)
		}
	}
}

func TestLiftPerfectReconstruction(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%62 + 2
		rng := rand.New(rand.NewSource(seed))
		x := make([]float32, n)
		orig := make([]float32, n)
		for i := range x {
			x[i] = float32(rng.Float64()*200 - 100)
			orig[i] = x[i]
		}
		scratch := make([]float32, n)
		lift97(x, scratch)
		unlift97(x, scratch)
		for i := range x {
			if math.Abs(float64(x[i]-orig[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLiftConstantSignal(t *testing.T) {
	// A constant signal has (near-)zero detail coefficients: the wavelet
	// filter must kill the DC in the detail band.
	n := 32
	x := make([]float32, n)
	for i := range x {
		x[i] = 100
	}
	lift97(x, make([]float32, n))
	for i := n / 2; i < n; i++ {
		if math.Abs(float64(x[i])) > 1e-3 {
			t.Fatalf("detail coefficient %d = %f for constant input", i, x[i])
		}
	}
}

func TestLaunchCount(t *testing.T) {
	// Two kernels per level.
	ctx, q := newEnv(t)
	inst, _ := NewInstance(data.GenerateLeaf(64, 64, 1), 3)
	if err := inst.Setup(ctx, q); err != nil {
		t.Fatal(err)
	}
	q.DrainEvents()
	if err := inst.Iterate(q); err != nil {
		t.Fatal(err)
	}
	kernels := 0
	for _, ev := range q.Events() {
		if ev.Kind == opencl.CommandKernel {
			kernels++
		}
	}
	if kernels != 6 {
		t.Fatalf("%d launches, want 6 (2 per level × 3 levels)", kernels)
	}
}

func TestFootprintsMatchPaperSizing(t *testing.T) {
	limits := map[string]float64{"tiny": 32, "small": 256, "medium": 8192}
	for size, lim := range limits {
		inst, err := New().New(size, 1)
		if err != nil {
			t.Fatal(err)
		}
		if kib := float64(inst.FootprintBytes()) / 1024; kib > lim {
			t.Errorf("%s: %.1f KiB exceeds %g", size, kib, lim)
		}
	}
	large, _ := New().New("large", 1)
	if kib := float64(large.FootprintBytes()) / 1024; kib < 4*8192 {
		t.Errorf("large %f KiB below 4×L3", kib)
	}
}

func TestLifecycleErrors(t *testing.T) {
	if _, err := NewInstance(data.NewImage(4, 4), 0); err == nil {
		t.Fatal("levels=0 accepted")
	}
	inst, _ := NewInstance(data.GenerateLeaf(8, 8, 1), 1)
	_, q := newEnv(t)
	if err := inst.Iterate(q); err == nil {
		t.Fatal("Iterate before Setup accepted")
	}
	if err := inst.Verify(); err == nil {
		t.Fatal("Verify before Iterate accepted")
	}
}

// Characterising a row leaves the image undrawn at every size, and Verify
// refuses to run without an executing Iterate.
func TestImageDeferredToExecutingIterate(t *testing.T) {
	for _, size := range New().Sizes() {
		inst, _ := dwarfstest.Characterise(t, New(), size, 1)
		in := inst.(*Instance)
		if in.original != nil {
			t.Errorf("%s: image drawn before an executing Iterate", size)
		}
		if err := in.Verify(); err == nil {
			t.Errorf("%s: Verify accepted without an executing Iterate", size)
		}
	}
}

// The image an executing Iterate draws at seed 1 is bitwise the one New
// generated when it drew eagerly; the digests were computed then.
func TestDrawnImageGolden(t *testing.T) {
	want := map[string]string{
		dwarfs.SizeTiny:   "48817807a5e21f52f0956728adb5f8fee1f49e0c0be7569663bf4c397622f215",
		dwarfs.SizeSmall:  "9d15dea0e28b48e25bdbea80b3ddeb68586a7fd8f0e92ff6e1579385c7a5e6c1",
		dwarfs.SizeMedium: "22397065fcd6db55898434bc68cd7c3c2dfe304b152c0d6186f39f5f926097aa",
	}
	for size, digest := range want {
		inst, q := dwarfstest.Characterise(t, New(), size, 1)
		q.SetSimulateOnly(false)
		if err := inst.Iterate(q); err != nil {
			t.Fatal(err)
		}
		if got := dwarfstest.Digest(inst.(*Instance).original); got != digest {
			t.Errorf("%s: image digest %s, want %s", size, got, digest)
		}
	}
}
