package floorsa

import (
	"context"
	"testing"
	"time"

	"eblow/internal/core"
	"eblow/internal/pack2d"
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

// TestPackBatchEmpty covers the zero-block shape a cohort member can have:
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
	start := time.Now()
	Pack(context.Background(), blocks, []int64{10000}, 200, 200, Options{Seed: 5, TimeLimit: 50 * time.Millisecond, MoveBudget: 10_000_000})
	if time.Since(start) > 5*time.Second {
		t.Errorf("time limit not respected: %v", time.Since(start))
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
