// Package data generates the benchmark input datasets. Where the paper used
// external data (PDB molecules via pdb2pqr/msms, a gum-leaf photograph
// resized by ImageMagick, files produced by the createcsr tool), this package
// produces synthetic equivalents with the same sizes and statistical
// structure, as documented in DESIGN.md. Every generator is a pure
// function of its arguments, including the seed its caller passes (a
// benchmark instance's, from the harness's Options.Seed), so a dataset
// is reproduced exactly by the same call.
package data

import "math/rand"

// RandomFeatures generates the kmeans feature space: the paper extended the
// benchmark "to support generation of a random distribution of points ...
// to more fairly evaluate cache performance" (§4.4.1). Points are uniform
// in [0, 100) per feature.
func RandomFeatures(points, features int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float32, points*features)
	for i := range out {
		out[i] = float32(rng.Float64() * 100)
	}
	return out
}

// RandomSequence generates an integer sequence in [1, alphabet] — the
// Needleman-Wunsch input (Rodinia draws residues 1..23).
func RandomSequence(n, alphabet int, seed int64) []int32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(rng.Intn(alphabet) + 1)
	}
	return out
}

// RandomBytes generates a crc input message of n bytes.
func RandomBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	// rand.Read on a seeded source is deterministic.
	if _, err := rng.Read(out); err != nil {
		panic(err) // cannot happen for math/rand
	}
	return out
}

// DiagonallyDominantMatrix generates an n×n row-major matrix that LU
// decomposition without pivoting factorises stably (Rodinia's lud input
// generator does the same).
func DiagonallyDominantMatrix(n int, seed int64) []float32 {
	rng := rand.New(rand.NewSource(seed))
	m := make([]float32, n*n)
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			v := rng.Float64()*2 - 1
			m[i*n+j] = float32(v)
			if v < 0 {
				sum -= v
			} else {
				sum += v
			}
		}
		m[i*n+i] = float32(sum + 1)
	}
	return m
}
