package floorsa

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/pack2d"
	"eblow/internal/seqpair"
)

func mkBlock(w, h, blank int, red ...int64) Block {
	return Block{
		Block:      pack2d.Block{W: w, H: h, BlankL: blank, BlankR: blank, BlankT: blank, BlankB: blank},
		Reductions: red,
	}
}

func TestPackEmpty(t *testing.T) {
	res := Pack(context.Background(), nil, []int64{100}, 50, 50, Options{Seed: 1})
	if res.WritingTime != 100 {
		t.Errorf("writing time = %d, want 100 (nothing to place)", res.WritingTime)
	}
}

// TestPackBatchEmpty covers the zero-block shape a small instance can have:
// with several regions and nothing to place, the writing time is the
// slowest region's pure-VSB time and no block is reported inside.
func TestPackBatchEmpty(t *testing.T) {
	res := Pack(context.Background(), nil, []int64{7, 42, 13}, 10, 10, Options{})
	if res.WritingTime != 42 || len(res.Inside) != 0 {
		t.Fatalf("got %+v, want writing time 42 (max VSB) and no blocks", res)
	}
}

func TestPackAllFit(t *testing.T) {
	blocks := []Block{
		mkBlock(30, 30, 3, 40),
		mkBlock(30, 30, 3, 30),
		mkBlock(30, 30, 3, 20),
	}
	res := Pack(context.Background(), blocks, []int64{200}, 100, 100, Options{Seed: 2})
	for i, in := range res.Inside {
		if !in {
			t.Errorf("block %d should fit on a roomy stencil", i)
		}
	}
	if res.WritingTime != 200-90 {
		t.Errorf("writing time = %d, want 110", res.WritingTime)
	}
}

func TestPackSelectsHighProfit(t *testing.T) {
	// Only one 40x40 block fits on a 45x45 stencil; the annealer must keep
	// the one with the larger reduction inside.
	blocks := []Block{
		mkBlock(40, 40, 2, 10),
		mkBlock(40, 40, 2, 90),
	}
	res := Pack(context.Background(), blocks, []int64{200}, 45, 45, Options{Seed: 3})
	if res.Inside[0] && res.Inside[1] {
		t.Fatal("both blocks cannot fit")
	}
	if !res.Inside[1] {
		t.Error("the high-profit block should be selected")
	}
	if res.WritingTime != 110 {
		t.Errorf("writing time = %d, want 110", res.WritingTime)
	}
}

func TestPackLegality(t *testing.T) {
	blocks := []Block{
		mkBlock(40, 40, 5, 10, 5),
		mkBlock(35, 30, 8, 20, 0),
		mkBlock(30, 45, 2, 5, 15),
		mkBlock(25, 25, 4, 8, 8),
		mkBlock(50, 20, 6, 12, 3),
	}
	w, h := 90, 90
	res := Pack(context.Background(), blocks, []int64{300, 250}, w, h, Options{Seed: 4})

	// Translate the result into a core instance/solution and run the strict
	// validator over the selected blocks.
	in := &core.Instance{Name: "floorsa-test", Kind: core.TwoD, StencilWidth: w, StencilHeight: h, NumRegions: 2}
	for i, b := range blocks {
		in.Characters = append(in.Characters, core.Character{
			ID: i, Width: b.W, Height: b.H,
			BlankLeft: b.BlankL, BlankRight: b.BlankR, BlankTop: b.BlankT, BlankBottom: b.BlankB,
			VSBShots: 2, Repeats: []int64{1, 1},
		})
	}
	sol := &core.Solution{Selected: make([]bool, len(blocks))}
	for i := range blocks {
		if res.Inside[i] {
			sol.Selected[i] = true
			sol.Placements = append(sol.Placements, core.Placement{Char: i, X: res.X[i], Y: res.Y[i]})
		}
	}
	if err := sol.Validate(in); err != nil {
		t.Errorf("floorsa produced an illegal placement: %v", err)
	}
	if res.Moves == 0 {
		t.Error("annealer did not move")
	}
}

func TestPackTimeLimit(t *testing.T) {
	blocks := make([]Block, 60)
	for i := range blocks {
		blocks[i] = mkBlock(20+i%10, 20+(i*3)%15, 2, int64(i))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	Pack(ctx, blocks, []int64{10000}, 200, 200, Options{Seed: 5, MoveBudget: 10_000_000})
	if time.Since(start) > 5*time.Second {
		t.Errorf("context deadline not respected: %v", time.Since(start))
	}
}

func TestDefaultBudgetBounds(t *testing.T) {
	if defaultBudget(1) < 2000 {
		t.Error("lower bound")
	}
	if defaultBudget(100000) > 60000 {
		t.Error("upper bound")
	}
}

// TestStrictOrder checks that compareShelf, the order of the initial
// shelf, is a strict total order on tie-heavy densities, NaN included: it
// is 0 only for an index against itself, antisymmetric, and transitive on
// sampled triples, so the shelf does not depend on how a sort places equal
// densities.
func TestStrictOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	keys := []float64{0, 0.5, 1, math.NaN()}
	for trial := 0; trial < 30; trial++ {
		density := make([]float64, 40)
		for i := range density {
			density[i] = keys[rng.Intn(len(keys))]
		}
		sign := func(a, b int) int { return max(-1, min(1, compareShelf(density, a, b))) }
		for a := range density {
			for b := range density {
				if c := sign(a, b); (c == 0) != (a == b) || sign(b, a) != -c {
					t.Fatalf("densities %v, %v: cmp(%d, %d) = %d, cmp(%d, %d) = %d", density[a], density[b], a, b, c, b, a, sign(b, a))
				}
			}
		}
		for range 20 * len(density) {
			a, b, c := rng.Intn(len(density)), rng.Intn(len(density)), rng.Intn(len(density))
			if sign(a, b) <= 0 && sign(b, c) <= 0 && sign(a, c) > 0 {
				t.Fatalf("not transitive on %d ≤ %d ≤ %d (densities %v, %v, %v)", a, b, c, density[a], density[b], density[c])
			}
		}
	}
}

// TestShelfWidthMatchesPackExact checks the shelf's running width against
// the exact legaliser. On random blocks whose blanks fit their width
// (BlankL+BlankR <= W), each shelf's width must be the x-extent PackExact
// gives it, every shelf must fit the stencil width, and a shelf may close
// only when the next block would not have fit on it.
func TestShelfWidthMatchesPackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(60)
		stencilW := 60 + rng.Intn(240)
		blocks := make([]pack2d.Block, n)
		for i := range blocks {
			w := 4 + rng.Intn(57)
			bl := rng.Intn(w/2 + 1)
			blocks[i] = pack2d.Block{
				W: w, H: 4 + rng.Intn(40),
				BlankL: bl, BlankR: rng.Intn(w - bl + 1),
				BlankT: rng.Intn(3), BlankB: rng.Intn(3),
			}
		}
		order := rng.Perm(n)
		ends, widths := fillShelves(blocks, order, stencilW, nil, nil)
		var sp seqpair.SeqPair
		shelfSeqPair(&sp, order, ends)
		pl := pack2d.PackExact(&sp, blocks)
		shelves, start := make([][]int, len(ends)), 0
		for s, end := range ends {
			shelves[s], start = order[start:end], end
		}
		for s, shelf := range shelves {
			extent := 0
			for _, i := range shelf {
				extent = max(extent, pl.X[i]+blocks[i].W)
			}
			if extent != widths[s] {
				t.Fatalf("trial %d shelf %d: running width %d, PackExact extent %d", trial, s, widths[s], extent)
			}
			if widths[s] > stencilW {
				t.Fatalf("trial %d shelf %d: width %d crosses the stencil width %d", trial, s, widths[s], stencilW)
			}
			if s+1 < len(shelves) {
				last, next := blocks[shelf[len(shelf)-1]], blocks[shelves[s+1][0]]
				if widths[s]+next.W-min(last.BlankR, next.BlankL) <= stencilW {
					t.Fatalf("trial %d shelf %d closed although the next block fits", trial, s)
				}
			}
		}
	}
}
