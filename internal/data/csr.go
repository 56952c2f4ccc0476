package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// CSR is a compressed-sparse-row matrix, the format of the paper's csr
// benchmark (Sparse Linear Algebra dwarf).
type CSR struct {
	N      int // square dimension
	RowPtr []int32
	Cols   []int32
	Vals   []float32
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Vals) }

// FootprintBytes is the device-side size of the matrix plus the x and y
// vectors of a SpMV, matching the paper's Eq. (1)-style accounting.
func (m *CSR) FootprintBytes() int64 {
	return int64(len(m.RowPtr))*4 + int64(len(m.Cols))*4 + int64(len(m.Vals))*4 + 2*int64(m.N)*4
}

// CreateCSR reproduces the createcsr tool of Table 3: an n×n matrix with the
// given density (the paper uses -d 5000, i.e. 0.5% dense / 99.5% sparse).
// Each row receives an expected density·n non-zeros at uniform random
// columns; rows may be empty, as with the original generator.
func CreateCSR(n int, density float64, seed int64) (*CSR, error) {
	if n <= 0 {
		return nil, fmt.Errorf("data: createcsr n=%d must be positive", n)
	}
	if density <= 0 || density > 1 {
		return nil, fmt.Errorf("data: createcsr density %g out of (0,1]", density)
	}
	rng := rand.New(rand.NewSource(seed))
	perRow := density * float64(n)
	// No row holds more than ⌈density·n⌉ distinct columns, so this
	// capacity bounds nnz and the appends below never reallocate.
	maxNNZ := n * min(int(math.Ceil(perRow)), n)
	m := &CSR{
		N:      n,
		RowPtr: make([]int32, n+1),
		Cols:   make([]int32, 0, maxNNZ),
		Vals:   make([]float32, 0, maxNNZ),
	}
	// stamp[c] == i+1 marks column c as drawn in row i, so duplicate
	// draws are rejected without clearing anything between rows.
	stamp := make([]int32, n)
	var row []int32
	for i := 0; i < n; i++ {
		// Binomial-ish draw: floor plus probabilistic extra keeps the
		// expected density exact even when density·n < 1.
		k := int(perRow)
		if rng.Float64() < perRow-float64(k) {
			k++
		}
		row = row[:0]
		for len(row) < k && len(row) < n {
			if c := int32(rng.Intn(n)); stamp[c] != int32(i+1) {
				stamp[c] = int32(i + 1)
				row = append(row, c)
			}
		}
		slices.Sort(row)
		m.Cols = append(m.Cols, row...)
		for range row {
			m.Vals = append(m.Vals, float32(rng.Float64()*2-1))
		}
		m.RowPtr[i+1] = int32(len(m.Cols))
	}
	return m, nil
}

// Validate checks structural invariants of the CSR format.
func (m *CSR) Validate() error {
	if len(m.RowPtr) != m.N+1 {
		return fmt.Errorf("data: rowptr length %d, want %d", len(m.RowPtr), m.N+1)
	}
	if m.RowPtr[0] != 0 || int(m.RowPtr[m.N]) != len(m.Cols) || len(m.Cols) != len(m.Vals) {
		return fmt.Errorf("data: inconsistent csr extents")
	}
	for i := 0; i < m.N; i++ {
		if m.RowPtr[i] > m.RowPtr[i+1] {
			return fmt.Errorf("data: rowptr not monotone at row %d", i)
		}
		prev := int32(-1)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			c := m.Cols[k]
			if c < 0 || int(c) >= m.N {
				return fmt.Errorf("data: column %d out of range in row %d", c, i)
			}
			if c <= prev {
				return fmt.Errorf("data: columns not strictly increasing in row %d", i)
			}
			prev = c
		}
	}
	return nil
}

// MulVec computes y = A·x serially (the csr benchmark's reference).
func (m *CSR) MulVec(x, y []float32) {
	if len(x) != m.N || len(y) != m.N {
		panic("data: MulVec dimension mismatch")
	}
	for i := 0; i < m.N; i++ {
		sum := float32(0)
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			sum += m.Vals[k] * x[m.Cols[k]]
		}
		y[i] = sum
	}
}
