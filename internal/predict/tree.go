package predict

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
)

// treeNode is one node of a regression tree, stored flat. Leaves have
// feature == -1 and carry the mean target of their samples.
type treeNode struct {
	feature   int
	threshold float64
	left      int32
	right     int32
	value     float64
}

// tree is a CART regression tree grown with variance-reduction splits.
type tree struct {
	nodes []treeNode
}

// growConfig bundles the per-tree growth parameters.
type growConfig struct {
	maxDepth    int
	minLeaf     int
	featureFrac float64
}

// presort returns, per feature column, the row indices in (value, row)
// order: the order every split scan walks. Rows start in index order and
// the sort is stable, so equal values keep ascending rows. Training
// inputs are finite, so the order is total.
func presort(cols [][]float64) [][]int32 {
	order := make([][]int32, len(cols))
	for f, col := range cols {
		ord := make([]int32, len(col))
		for r := range ord {
			ord[r] = int32(r)
		}
		slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
		order[f] = ord
	}
	return order
}

// grower holds one worker's tree-construction state. Its buffers are
// sized once for the forest's rows and reused by every tree the worker
// grows. All randomness flows through rng, which one goroutine owns, and
// nodes are expanded depth-first left-to-right, so a tree is a pure
// function of (data, rng seed).
//
// A node owns the same range [lo, hi) of samples and of every feature's
// segment of sorted. samples holds the node's bootstrap draws in draw
// order, for its sums; a feature's segment holds them in (value, row)
// order, for the split scan. A split partitions every list stably, so
// both orders hold in each child without sorting.
type grower struct {
	cols  [][]float64 // per feature, the value of every row
	y     []float64
	order [][]int32 // presort(cols), shared by the forest's growers
	cfg   growConfig

	rng        *rand.Rand
	nodes      []treeNode
	importance []float64 // summed SSE reduction per feature

	featIdx []int   // feature subsampling
	count   []int32 // per row: bootstrap multiplicity
	samples []int32 // the bootstrap draws in draw order
	sorted  []int32 // feature f's list is sorted[f*n : (f+1)*n], n = len(y)
	left    []uint8 // per row: 1 if it goes left at the split being applied
	spill   []int32 // right-hand rows during a stable partition
}

func newGrower(cols [][]float64, y []float64, order [][]int32, cfg growConfig) *grower {
	n := len(y)
	return &grower{
		cols: cols, y: y, order: order, cfg: cfg,
		featIdx: make([]int, len(cols)),
		count:   make([]int32, n),
		samples: make([]int32, n),
		sorted:  make([]int32, len(cols)*n),
		left:    make([]uint8, n),
		spill:   make([]int32, n),
	}
}

// grow draws a bootstrap sample of the rows from rng and fits one tree on
// it, drawing its feature subsets from the same rng. importance
// accumulates each split's SSE reduction into the split feature's slot.
func (g *grower) grow(rng *rand.Rand, importance []float64) *tree {
	n := len(g.y)
	clear(g.count)
	for i := range g.samples {
		r := int32(rng.Intn(n))
		g.samples[i] = r
		g.count[r]++
	}
	// Expand each presorted list by multiplicity. Duplicates of one row
	// share x and y, so their order among themselves does not matter.
	for f, ord := range g.order {
		list := g.sorted[f*n : (f+1)*n]
		k := 0
		for _, r := range ord {
			for c := g.count[r]; c > 0; c-- {
				list[k] = r
				k++
			}
		}
	}
	g.rng, g.importance, g.nodes = rng, importance, nil
	g.build(0, n, 0)
	return &tree{nodes: g.nodes}
}

// build grows the subtree over the node range [lo, hi) at the given depth
// and returns its node index.
func (g *grower) build(lo, hi, depth int) int32 {
	sum, sumSq := 0.0, 0.0
	for _, r := range g.samples[lo:hi] {
		sum += g.y[r]
		sumSq += g.y[r] * g.y[r]
	}
	n := float64(hi - lo)
	mean := sum / n
	sse := sumSq - sum*sum/n

	node := int32(len(g.nodes))
	g.nodes = append(g.nodes, treeNode{feature: -1, value: mean})
	if !g.splittable(hi-lo, depth) || sse <= 1e-12 {
		return node
	}

	feat, thr, gain := g.bestSplit(lo, hi, sum, sumSq, sse)
	if feat < 0 {
		return node
	}
	g.importance[feat] += gain

	mid := g.partition(lo, hi, feat, thr, depth+1)
	if mid == lo || mid == hi {
		// Cannot happen with the threshold guard in bestSplit; keep the
		// node a leaf rather than recurse on an empty side.
		return node
	}
	g.nodes[node].feature = feat
	g.nodes[node].threshold = thr
	g.nodes[node].left = g.build(lo, mid, depth+1)
	g.nodes[node].right = g.build(mid, hi, depth+1)
	return node
}

// splittable reports whether a node of n samples at depth may be split.
func (g *grower) splittable(n, depth int) bool {
	return depth < g.cfg.maxDepth && n >= 2*g.cfg.minLeaf
}

// partition splits the node range [lo, hi) of every list at (feat, thr),
// left side first, each side in its previous order, and returns where the
// right side starts. The feature lists are left alone when neither child,
// at childDepth, may be split: a leaf reads only its samples.
func (g *grower) partition(lo, hi, feat int, thr float64, childDepth int) int {
	col := g.cols[feat]
	for _, r := range g.samples[lo:hi] {
		g.left[r] = 0
		if col[r] <= thr {
			g.left[r] = 1
		}
	}
	mid := lo + g.stablePartition(g.samples[lo:hi])
	if !g.splittable(mid-lo, childDepth) && !g.splittable(hi-mid, childDepth) {
		return mid
	}
	n := len(g.y)
	for f := range g.cols {
		g.stablePartition(g.sorted[f*n+lo : f*n+hi])
	}
	return mid
}

// stablePartition moves the rows of s that go left to its front, keeping
// the order within each side, and returns how many went left. Each row is
// written to both sides and only its own side's cursor advances, so the
// loop has no data-dependent branch.
func (g *grower) stablePartition(s []int32) int {
	k, j := 0, 0
	for _, r := range s {
		l := int(g.left[r])
		s[k] = r
		g.spill[j] = r
		k += l
		j += 1 - l
	}
	copy(s[k:], g.spill[:j])
	return k
}

// bestSplit searches a random feature subset for the (feature, threshold)
// pair with the largest SSE reduction over the node range [lo, hi).
// Candidate features are scanned in ascending index order and a new best
// must be strictly better, so ties resolve to the lowest feature index /
// lowest threshold deterministically.
func (g *grower) bestSplit(lo, hi int, totSum, totSumSq, parentSSE float64) (int, float64, float64) {
	nFeat := len(g.featIdx)
	k := int(float64(nFeat) * g.cfg.featureFrac)
	if k < 1 {
		k = 1
	}
	if k > nFeat {
		k = nFeat
	}
	for i := range g.featIdx {
		g.featIdx[i] = i
	}
	// Partial Fisher-Yates for the feature subset, then sort the chosen
	// prefix so the scan order is index-ascending.
	for i := 0; i < k; i++ {
		j := i + g.rng.Intn(nFeat-i)
		g.featIdx[i], g.featIdx[j] = g.featIdx[j], g.featIdx[i]
	}
	chosen := g.featIdx[:k]
	sort.Ints(chosen)

	bestFeat, bestThr, bestGain := -1, 0.0, 1e-12
	m := hi - lo
	n := float64(m)
	rows := len(g.y)
	for _, f := range chosen {
		// The node's samples in (value, row) order: the row tiebreak
		// makes the prefix-sum order, and so the floating-point result,
		// unique.
		ord := g.sorted[f*rows+lo : f*rows+hi]
		col := g.cols[f]
		sumL, sumSqL := 0.0, 0.0
		for pos := 0; pos < m-1; pos++ {
			yi := g.y[ord[pos]]
			sumL += yi
			sumSqL += yi * yi
			// Only split between distinct values.
			xl, xr := col[ord[pos]], col[ord[pos+1]]
			if xl == xr || pos+1 < g.cfg.minLeaf || m-pos-1 < g.cfg.minLeaf {
				continue
			}
			nL := float64(pos + 1)
			nR := n - nL
			sumR := totSum - sumL
			sseL := sumSqL - sumL*sumL/nL
			sseR := (totSumSq - sumSqL) - sumR*sumR/nR
			gain := parentSSE - sseL - sseR
			if gain > bestGain {
				thr := (xl + xr) / 2
				if thr >= xr {
					// The midpoint of two ulp-adjacent values rounds up
					// to the right value, which would leave the right
					// partition empty; split at the left value instead.
					thr = xl
				}
				bestFeat = f
				bestThr = thr
				bestGain = gain
			}
		}
	}
	return bestFeat, bestThr, bestGain
}

// predict walks one feature vector to its leaf.
func (t *tree) predict(x []float64) float64 {
	n := int32(0)
	for {
		nd := &t.nodes[n]
		if nd.feature < 0 {
			return nd.value
		}
		if x[nd.feature] <= nd.threshold {
			n = nd.left
		} else {
			n = nd.right
		}
	}
}
