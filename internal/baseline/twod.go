package baseline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"eblow/internal/core"
	"eblow/internal/floorsa"
	"eblow/internal/pack2d"
)

// Greedy2D is the 2D greedy baseline: characters sorted by static profit are
// packed onto shelves (bottom-left, no blank sharing); characters that do
// not fit are skipped.
func Greedy2D(in *core.Instance) (*core.Solution, error) {
	start := time.Now()
	if err := check2D(in); err != nil {
		return nil, err
	}
	sol := &core.Solution{Selected: make([]bool, in.NumCharacters())}

	shelfY, shelfH, cursorX := 0, 0, 0
	for _, id := range staticOrder(in, false) {
		c := in.Characters[id]
		if c.Width > in.StencilWidth || c.Height > in.StencilHeight {
			continue
		}
		if cursorX+c.Width > in.StencilWidth {
			// Open a new shelf.
			if shelfH == 0 {
				continue
			}
			shelfY += shelfH
			shelfH = 0
			cursorX = 0
		}
		if shelfY+c.Height > in.StencilHeight {
			continue
		}
		sol.Selected[id] = true
		sol.Placements = append(sol.Placements, core.Placement{Char: id, X: cursorX, Y: shelfY})
		cursorX += c.Width
		if c.Height > shelfH {
			shelfH = c.Height
		}
	}
	sol.Finalize(in, "Greedy-2D", time.Since(start))
	return sol, nil
}

// SA2DOptions configures the prior-work simulated-annealing floorplanner.
type SA2DOptions struct {
	// MoveBudget is passed to the annealer (0 = automatic).
	MoveBudget int
	// Seed seeds the annealer.
	Seed int64
	// TimeLimit bounds the annealing run.
	TimeLimit time.Duration
	// Restarts is the number of independent annealing restarts (best-of
	// wins); 0 means 1.
	Restarts int
	// Workers bounds how many restarts anneal concurrently; 0 means one
	// goroutine per restart.
	Workers int
	// PreFilterFactor keeps PreFilterFactor * (stencil area / average
	// character area) candidates before annealing; 0 means 2.5.
	PreFilterFactor float64
}

// SA2D reimplements the fixed-outline floorplanning flow of [24]: a
// sequence-pair simulated annealer over individual characters (no
// clustering). Characters whose placement falls outside the outline are not
// selected. Following the paper's note on adapting [24] to MCC systems, the
// annealing objective is the total writing time over all regions. The
// context cancels the annealing run; an already-done context returns
// ctx.Err() immediately.
func SA2D(ctx context.Context, in *core.Instance, opt SA2DOptions) (*core.Solution, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := check2D(in); err != nil {
		return nil, err
	}
	if opt.PreFilterFactor <= 0 {
		opt.PreFilterFactor = 2.5
	}

	ids := preFilter2D(in, opt.PreFilterFactor)
	blocks := make([]floorsa.Block, len(ids))
	for k, id := range ids {
		blocks[k] = charBlock(in, id)
	}

	res := floorsa.Pack(ctx, blocks, in.VSBTime(), in.StencilWidth, in.StencilHeight, floorsa.Options{
		MoveBudget:   opt.MoveBudget,
		Seed:         opt.Seed,
		TimeLimit:    opt.TimeLimit,
		Restarts:     opt.Restarts,
		Workers:      opt.Workers,
		SumObjective: true,
	})

	sol := &core.Solution{Selected: make([]bool, in.NumCharacters())}
	for k, id := range ids {
		if res.Inside[k] {
			sol.Selected[id] = true
			sol.Placements = append(sol.Placements, core.Placement{Char: id, X: res.X[k], Y: res.Y[k]})
		}
	}
	sol.Finalize(in, "SA-2D[24]", time.Since(start))
	return sol, nil
}

// charBlock converts a character into a floorsa block.
func charBlock(in *core.Instance, id int) floorsa.Block {
	c := in.Characters[id]
	reds := make([]int64, in.NumRegions)
	for r := range reds {
		reds[r] = in.Reduction(id, r)
	}
	return floorsa.Block{
		Block: pack2d.Block{
			W: c.Width, H: c.Height,
			BlankL: c.BlankLeft, BlankR: c.BlankRight,
			BlankT: c.BlankTop, BlankB: c.BlankBottom,
		},
		Reductions: reds,
	}
}

// preFilter2D keeps the most profitable candidates (by profit per area),
// bounded by factor times the estimated stencil capacity.
func preFilter2D(in *core.Instance, factor float64) []int {
	profits := in.StaticProfits()
	ids := make([]int, 0, in.NumCharacters())
	var totalArea int64
	for i, c := range in.Characters {
		if c.Width > in.StencilWidth || c.Height > in.StencilHeight {
			continue
		}
		ids = append(ids, i)
		totalArea += int64(c.Width) * int64(c.Height)
	}
	if len(ids) == 0 {
		return ids
	}
	avgArea := float64(totalArea) / float64(len(ids))
	capEstimate := float64(in.StencilWidth) * float64(in.StencilHeight) / avgArea
	limit := int(factor * capEstimate)
	if limit < 1 {
		limit = 1
	}
	sort.Slice(ids, func(a, b int) bool {
		da := profits[ids[a]] / float64(in.Characters[ids[a]].Width*in.Characters[ids[a]].Height)
		db := profits[ids[b]] / float64(in.Characters[ids[b]].Width*in.Characters[ids[b]].Height)
		if da != db {
			return da > db
		}
		return ids[a] < ids[b]
	})
	if len(ids) > limit {
		ids = ids[:limit]
	}
	return ids
}

func check2D(in *core.Instance) error {
	if err := in.Validate(); err != nil {
		return err
	}
	if in.Kind != core.TwoD {
		return fmt.Errorf("baseline: instance %q is not a 2DOSP instance", in.Name)
	}
	return nil
}
