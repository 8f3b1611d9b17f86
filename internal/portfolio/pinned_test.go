package portfolio

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
	"eblow/internal/solver"
)

// planHash is FNV-1a over the selection, every row's y, characters and x
// positions, and every placement.
func planHash(sol *core.Solution) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for _, on := range sol.Selected {
		if on {
			put(1)
		} else {
			put(0)
		}
	}
	for _, r := range sol.Rows {
		put(r.Y)
		put(len(r.Chars))
		for k, c := range r.Chars {
			put(c)
			put(r.X[k])
		}
	}
	for _, p := range sol.Placements {
		put(p.Char)
		put(p.X)
		put(p.Y)
	}
	return h.Sum64()
}

// TestStaticRacePinned pins the fixed-order race: winner, writing time and
// a hash of the winning plan, at one and four workers, on the Table-5 tiny
// families and one small generated instance per kind. The race runs the
// registry's racing entrants in registration order with their seed offsets
// and a uniform heavy-worker split; any change to that order, the offsets,
// the tie-break or an entrant's plan shows up here. Runs under -short.
func TestStaticRacePinned(t *testing.T) {
	small1D := gen.Small(core.OneD, 60, 3, 11)
	small1D.Name = "small-1D"
	small2D := gen.Small(core.TwoD, 40, 2, 12)
	small2D.Name = "small-2D"
	cases := []struct {
		in     *core.Instance
		winner string
		wt     int64
		hash   uint64
	}{
		{gen.Tiny1T(1), "eblow", 49, 0xab282acabd9d19a3},
		{gen.Tiny1T(2), "eblow", 67, 0x5b921a2aff733ba3},
		{gen.Tiny1T(3), "eblow", 195, 0xfdc91669a1c444a3},
		{gen.Tiny2T(1), "eblow", 22, 0xe59ed6d3dad009a},
		{gen.Tiny2T(2), "eblow", 44, 0xe3534f0d2c1b2ca4},
		{gen.Tiny2T(3), "eblow", 91, 0x2afde540ceb89fcd},
		{gen.Tiny2T(4), "eblow", 211, 0xe9a39aa84fafd700},
		{small1D, "eblow", 653, 0xf6a1364edeac81c9},
		{small2D, "eblow", 415, 0xfee8bb5db6ed976f},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/w%d", c.in.Name, workers), func(t *testing.T) {
				res, err := solver.Solve(context.Background(), "portfolio", c.in, solver.Params{Workers: workers, Seed: 7, Restarts: 2})
				if err != nil {
					t.Fatal(err)
				}
				got := fmt.Sprintf("%s T=%d plan=%#x", res.Strategy, res.Solution.WritingTime, planHash(res.Solution))
				want := fmt.Sprintf("%s T=%d plan=%#x", c.winner, c.wt, c.hash)
				if got != want {
					t.Errorf("race = %s, want %s", got, want)
				}
			})
		}
	}
}
