package nw

import (
	"math/rand"
	"testing"
	"testing/quick"

	"opendwarfs/internal/opencl"
)

func quickEnv() (*opencl.Context, *opencl.CommandQueue) {
	dev, err := opencl.LookupDevice("i7-6700k")
	if err != nil {
		return nil, nil
	}
	ctx, _ := opencl.NewContext(dev)
	q, _ := opencl.NewQueue(ctx, dev)
	return ctx, q
}

func runNW(n int, seed int64) *Instance {
	ctx, q := quickEnv()
	if ctx == nil {
		return nil
	}
	inst, err := NewInstance(n, seed)
	if err != nil {
		return nil
	}
	if err := inst.Setup(ctx, q); err != nil {
		return nil
	}
	if err := inst.Iterate(q); err != nil {
		return nil
	}
	return inst
}

// Property: blocked wavefront equals the serial DP for arbitrary seeds and
// block multiples.
func TestWavefrontSerialAgreementProperty(t *testing.T) {
	f := func(seed int64, nbRaw uint8) bool {
		nb := int(nbRaw)%3 + 1
		inst := runNW(nb*BlockSize, seed)
		return inst != nil && inst.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: every interior cell satisfies the DP recurrence — a local
// invariant that catches block-boundary bugs directly.
func TestRecurrenceHoldsAtRandomCells(t *testing.T) {
	inst := runNW(4*BlockSize, 77)
	if inst == nil {
		t.Fatal("setup failed")
	}
	dim := inst.n + 1
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		i := rng.Intn(inst.n) + 1
		j := rng.Intn(inst.n) + 1
		want := inst.m[(i-1)*dim+j-1] + inst.score[int(inst.seq2[i-1])*(Alphabet+1)+int(inst.seq1[j-1])]
		if up := inst.m[(i-1)*dim+j] - Penalty; up > want {
			want = up
		}
		if left := inst.m[i*dim+j-1] - Penalty; left > want {
			want = left
		}
		if inst.m[i*dim+j] != want {
			t.Fatalf("cell (%d,%d) = %d violates the recurrence (want %d)", i, j, inst.m[i*dim+j], want)
		}
	}
}

// Property: the optimal score never exceeds the perfect-match upper bound
// n × max(table) and never drops below the all-gap lower bound −2n·penalty.
func TestScoreBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		inst := runNW(2*BlockSize, seed)
		if inst == nil {
			return false
		}
		var maxScore int32
		for _, v := range inst.score {
			if v > maxScore {
				maxScore = v
			}
		}
		s := inst.Score()
		upper := int32(inst.n) * maxScore
		lower := int32(-2 * inst.n * Penalty)
		return s <= upper && s >= lower
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
