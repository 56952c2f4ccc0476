package data

import (
	"fmt"
	"math"
	"math/rand"
)

// Image is a grayscale raster used by the dwt benchmark. Pixels are float32
// intensities in [0, 255].
type Image struct {
	W, H int
	Pix  []float32
}

// NewImage allocates a W×H image.
func NewImage(w, h int) *Image {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("data: invalid image size %dx%d", w, h))
	}
	return &Image{W: w, H: h, Pix: make([]float32, w*h)}
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) float32 { return im.Pix[y*im.W+x] }

// Set assigns the pixel at (x, y).
func (im *Image) Set(x, y int, v float32) { im.Pix[y*im.W+x] = v }

// GenerateLeaf synthesises the paper's gum-leaf test photograph (§4.4.3):
// an elliptical leaf body with a midrib, branching veins and smooth
// illumination gradients over a textured background. The structural content
// (edges at several orientations and scales plus smooth regions) is what a
// wavelet transform responds to, so it stands in for the original image.
func GenerateLeaf(w, h int, seed int64) *Image {
	im := NewImage(w, h)
	rng := rand.New(rand.NewSource(seed))
	cx, cy := float64(w)/2, float64(h)/2
	a, b := float64(w)*0.42, float64(h)*0.33
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fx, fy := float64(x), float64(y)
			// Leaf body: rotated ellipse.
			dx, dy := (fx-cx)/a, (fy-cy)/b
			r := dx*dx + dy*dy
			v := 40.0 + 20*fx/float64(w) // background gradient
			if r < 1 {
				// Interior shading darkens toward the rim.
				v = 150 - 60*r
				// Midrib along the major axis.
				if math.Abs(fy-cy) < float64(h)*0.01+1 {
					v -= 35
				}
				// Secondary veins: oblique stripes.
				phase := (fx - cx) + 2.2*math.Abs(fy-cy)
				period := math.Max(4, float64(w)/24)
				if math.Mod(math.Abs(phase), period) < period*0.12 {
					v -= 25
				}
			}
			// Sensor-like noise.
			v += rng.NormFloat64() * 2
			im.Set(x, y, float32(math.Max(0, math.Min(255, v))))
		}
	}
	return im
}
