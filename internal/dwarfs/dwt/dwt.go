// Package dwt implements the second Spectral Methods benchmark the paper
// added to the suite (§2, §4.4.3): a 2-D discrete wavelet transform (CDF 9/7
// lifting, the Rodinia dwt2d filter) over the gum-leaf test image. Each
// level runs a row-lifting kernel (one work-item per row) followed by a
// column-lifting kernel (one work-item per column) over the shrinking LL
// quadrant.
package dwt

import (
	"fmt"

	"opendwarfs/internal/cache"
	"opendwarfs/internal/data"
	"opendwarfs/internal/dwarfs"
	"opendwarfs/internal/opencl"
	"opendwarfs/internal/sim"
)

// Levels is the transform depth (Table 3: dwt -l 3).
const Levels = 3

// CDF 9/7 lifting coefficients (JPEG2000 irreversible filter).
const (
	alpha = -1.586134342059924
	beta  = -0.052980118572961
	gamma = 0.882911075530934
	delta = 0.443506852043971
	kappa = 1.230174104914001
)

// dims holds one Table 2 image geometry.
type dims struct{ W, H int }

// sizeDims is the Table 2 workload scale parameter Φ (image resolution).
var sizeDims = map[string]dims{
	dwarfs.SizeTiny:   {72, 54},
	dwarfs.SizeSmall:  {200, 150},
	dwarfs.SizeMedium: {1152, 864},
	dwarfs.SizeLarge:  {3648, 2736},
}

// Benchmark is the suite entry.
type Benchmark struct{}

// New returns the benchmark.
func New() *Benchmark { return &Benchmark{} }

// Name implements dwarfs.Benchmark.
func (*Benchmark) Name() string { return "dwt" }

// Dwarf implements dwarfs.Benchmark.
func (*Benchmark) Dwarf() string { return "Spectral Methods" }

// Sizes implements dwarfs.Benchmark.
func (*Benchmark) Sizes() []string { return dwarfs.Sizes() }

// ScaleParameter implements dwarfs.Benchmark.
func (*Benchmark) ScaleParameter(size string) string {
	d := sizeDims[size]
	return fmt.Sprintf("%dx%d", d.W, d.H)
}

// ArgString implements dwarfs.Benchmark (Table 3: dwt -l 3 Φ-gum.ppm).
func (*Benchmark) ArgString(size string) string {
	d := sizeDims[size]
	return fmt.Sprintf("-l %d %dx%d-gum.ppm", Levels, d.W, d.H)
}

// New implements dwarfs.Benchmark. The gum-leaf image is drawn from the
// seed by the first executing Iterate (see dwarfs.Instance).
func (*Benchmark) New(size string, seed int64) (dwarfs.Instance, error) {
	d, ok := sizeDims[size]
	if !ok {
		return nil, fmt.Errorf("dwt: unsupported size %q", size)
	}
	return &Instance{w: d.W, h: d.H, levels: Levels, seed: seed}, nil
}

// Instance is one configured transform.
type Instance struct {
	w, h, levels int
	seed         int64
	original     []float32 // input image; nil until drawn

	imgBuf, tmpBuf *opencl.Buffer
	img, tmp       []float32 // the buffers' backing; nil until an executing Iterate

	// Current LL-quadrant geometry, read by the kernel closures.
	curW, curH   int
	kRows, kCols *opencl.Kernel
}

// NewInstance builds an instance over an image.
func NewInstance(im *data.Image, levels int) (*Instance, error) {
	if levels < 1 {
		return nil, fmt.Errorf("dwt: levels %d must be ≥ 1", levels)
	}
	if im.W < 2 || im.H < 2 {
		return nil, fmt.Errorf("dwt: image %dx%d too small", im.W, im.H)
	}
	in := &Instance{w: im.W, h: im.H, levels: levels}
	in.original = append([]float32(nil), im.Pix...)
	return in, nil
}

// draw generates the gum-leaf image from the seed unless the input is
// already drawn or was supplied.
func (in *Instance) draw() {
	if in.original == nil {
		in.original = data.GenerateLeaf(in.w, in.h, in.seed).Pix
	}
}

// FootprintBytes implements dwarfs.Instance: image plus scratch plane.
func (in *Instance) FootprintBytes() int64 { return 2 * int64(in.w) * int64(in.h) * 4 }

// Setup implements dwarfs.Instance.
func (in *Instance) Setup(ctx *opencl.Context, q *opencl.CommandQueue) error {
	in.imgBuf = opencl.NewBuffer[float32](ctx, "image", in.w*in.h)
	in.tmpBuf = opencl.NewBuffer[float32](ctx, "scratch", in.w*in.h)

	in.kRows = &opencl.Kernel{
		Name: "fdwt97_rows",
		Fn: func(wi *opencl.Item) {
			y := wi.GlobalID(0)
			row := in.img[y*in.w : y*in.w+in.curW]
			lift97(row, in.tmp[y*in.w:y*in.w+in.curW])
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile {
			return in.profile("fdwt97_rows", ndr, in.curW, cache.Streaming)
		},
	}
	in.kCols = &opencl.Kernel{
		Name: "fdwt97_cols",
		Fn: func(wi *opencl.Item) {
			x := wi.GlobalID(0)
			col := make([]float32, in.curH)
			for y := 0; y < in.curH; y++ {
				col[y] = in.img[y*in.w+x]
			}
			lift97(col, make([]float32, in.curH))
			for y := 0; y < in.curH; y++ {
				in.img[y*in.w+x] = col[y]
			}
		},
		Profile: func(ndr opencl.NDRange) *sim.KernelProfile {
			return in.profile("fdwt97_cols", ndr, in.curH, cache.Strided)
		},
	}
	q.EnqueueWrite(in.imgBuf)
	return nil
}

// profile characterises one lifting pass: each item streams `span` samples
// through the four lifting steps (~10 ops each). Spectral Methods are
// memory-latency limited (§5.1); the column pass's strided walks are where
// that bites.
func (in *Instance) profile(name string, ndr opencl.NDRange, span int, pat cache.Pattern) *sim.KernelProfile {
	return &sim.KernelProfile{
		Name:              name,
		WorkItems:         ndr.TotalItems(),
		FlopsPerItem:      10 * float64(span),
		IntOpsPerItem:     4 * float64(span),
		LoadBytesPerItem:  4 * float64(span),
		StoreBytesPerItem: 4 * float64(span),
		WorkingSetBytes:   2 * int64(in.curW) * int64(in.curH) * 4,
		Pattern:           pat,
		TemporalReuse:     0.3,
		Vectorizable:      true,
	}
}

// lift97 performs one forward CDF 9/7 lifting pass on x, writing the
// deinterleaved result back: approximation coefficients first, then details.
// scratch must be at least len(x) long. Boundaries clamp (both forward and
// inverse use the same rule, so reconstruction is exact).
func lift97(x, scratch []float32) {
	n := len(x)
	ne := (n + 1) / 2
	no := n / 2
	e := scratch[:ne]
	o := make([]float32, no)
	for i := 0; i < ne; i++ {
		e[i] = x[2*i]
	}
	for i := 0; i < no; i++ {
		o[i] = x[2*i+1]
	}
	eAt := func(i int) float32 {
		if i >= ne {
			i = ne - 1
		}
		return e[i]
	}
	oAt := func(i int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= no {
			i = no - 1
		}
		return o[i]
	}
	for i := 0; i < no; i++ { // predict 1
		o[i] += float32(alpha) * (e[i] + eAt(i+1))
	}
	for i := 0; i < ne; i++ { // update 1
		e[i] += float32(beta) * (oAt(i-1) + oAt(i))
	}
	for i := 0; i < no; i++ { // predict 2
		o[i] += float32(gamma) * (e[i] + eAt(i+1))
	}
	for i := 0; i < ne; i++ { // update 2
		e[i] += float32(delta) * (oAt(i-1) + oAt(i))
	}
	for i := 0; i < ne; i++ {
		x[i] = e[i] * float32(1/kappa)
	}
	for i := 0; i < no; i++ {
		x[ne+i] = o[i] * float32(kappa)
	}
}

// unlift97 inverts lift97 exactly.
func unlift97(x, scratch []float32) {
	n := len(x)
	ne := (n + 1) / 2
	no := n / 2
	e := scratch[:ne]
	o := make([]float32, no)
	for i := 0; i < ne; i++ {
		e[i] = x[i] * float32(kappa)
	}
	for i := 0; i < no; i++ {
		o[i] = x[ne+i] * float32(1/kappa)
	}
	eAt := func(i int) float32 {
		if i >= ne {
			i = ne - 1
		}
		return e[i]
	}
	oAt := func(i int) float32 {
		if i < 0 {
			i = 0
		}
		if i >= no {
			i = no - 1
		}
		return o[i]
	}
	for i := 0; i < ne; i++ {
		e[i] -= float32(delta) * (oAt(i-1) + oAt(i))
	}
	for i := 0; i < no; i++ {
		o[i] -= float32(gamma) * (e[i] + eAt(i+1))
	}
	for i := 0; i < ne; i++ {
		e[i] -= float32(beta) * (oAt(i-1) + oAt(i))
	}
	for i := 0; i < no; i++ {
		o[i] -= float32(alpha) * (e[i] + eAt(i+1))
	}
	for i := 0; i < ne; i++ {
		x[2*i] = e[i]
	}
	for i := 0; i < no; i++ {
		x[2*i+1] = o[i]
	}
}

// Iterate implements dwarfs.Instance: restore the image and run all levels.
func (in *Instance) Iterate(q *opencl.CommandQueue) error {
	if in.kRows == nil {
		return fmt.Errorf("dwt: Iterate before Setup")
	}
	if !q.SimulateOnly() {
		in.draw()
		in.img, in.tmp = opencl.Data[float32](in.imgBuf), opencl.Data[float32](in.tmpBuf)
		copy(in.img, in.original)
	}
	q.EnqueueWrite(in.imgBuf)
	in.curW, in.curH = in.w, in.h
	for l := 0; l < in.levels && in.curW >= 2 && in.curH >= 2; l++ {
		if _, err := q.EnqueueNDRange(in.kRows, opencl.NDR1(in.curH, gcdLocal(in.curH))); err != nil {
			return err
		}
		if _, err := q.EnqueueNDRange(in.kCols, opencl.NDR1(in.curW, gcdLocal(in.curW))); err != nil {
			return err
		}
		in.curW = (in.curW + 1) / 2
		in.curH = (in.curH + 1) / 2
	}
	return nil
}

// gcdLocal picks the largest power-of-two work-group size ≤ 64 dividing n.
func gcdLocal(n int) int {
	for _, l := range []int{64, 32, 16, 8, 4, 2} {
		if n%l == 0 {
			return l
		}
	}
	return 1
}

// Coefficients returns the transformed plane of the last Iterate.
func (in *Instance) Coefficients() []float32 { return in.img }

// SerialForward runs the reference transform on a copy of the input and
// returns the coefficient plane.
func (in *Instance) SerialForward() []float32 {
	in.draw()
	img := append([]float32(nil), in.original...)
	scratch := make([]float32, max(in.w, in.h))
	w, h := in.w, in.h
	for l := 0; l < in.levels && w >= 2 && h >= 2; l++ {
		for y := 0; y < h; y++ {
			lift97(img[y*in.w:y*in.w+w], scratch)
		}
		col := make([]float32, h)
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				col[y] = img[y*in.w+x]
			}
			lift97(col, scratch)
			for y := 0; y < h; y++ {
				img[y*in.w+x] = col[y]
			}
		}
		w, h = (w+1)/2, (h+1)/2
	}
	return img
}

// SerialInverse undoes the reference transform in place on plane.
func (in *Instance) SerialInverse(plane []float32) {
	// Replay geometry to find per-level extents, then invert backwards.
	type lvl struct{ w, h int }
	var lvls []lvl
	w, h := in.w, in.h
	for l := 0; l < in.levels && w >= 2 && h >= 2; l++ {
		lvls = append(lvls, lvl{w, h})
		w, h = (w+1)/2, (h+1)/2
	}
	scratch := make([]float32, max(in.w, in.h))
	for i := len(lvls) - 1; i >= 0; i-- {
		w, h := lvls[i].w, lvls[i].h
		col := make([]float32, h)
		for x := 0; x < w; x++ {
			for y := 0; y < h; y++ {
				col[y] = plane[y*in.w+x]
			}
			unlift97(col, scratch)
			for y := 0; y < h; y++ {
				plane[y*in.w+x] = col[y]
			}
		}
		for y := 0; y < h; y++ {
			unlift97(plane[y*in.w:y*in.w+w], scratch)
		}
	}
}

// Verify implements dwarfs.Instance: kernel output must equal the serial
// reference bit for bit (identical arithmetic order), and inverting the
// result must reconstruct the original image.
func (in *Instance) Verify() error {
	if in.img == nil {
		return fmt.Errorf("dwt: Verify before an executing Iterate")
	}
	ref := in.SerialForward()
	for i := range ref {
		if ref[i] != in.img[i] {
			return fmt.Errorf("dwt: coefficient %d differs: kernel %f vs serial %f", i, in.img[i], ref[i])
		}
	}
	recon := append([]float32(nil), in.img...)
	in.SerialInverse(recon)
	for i := range recon {
		d := float64(recon[i] - in.original[i])
		if d > 0.05 || d < -0.05 {
			return fmt.Errorf("dwt: pixel %d reconstructs to %f, original %f", i, recon[i], in.original[i])
		}
	}
	return nil
}
