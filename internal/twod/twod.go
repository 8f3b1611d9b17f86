// Package twod implements the E-BLOW planner for the 2DOSP problem.
//
// Solve is the served planner: a profit pre-filter, then one shelf packing
// of the remaining characters (floorsa.Workspace.Shelf) whose shelves count
// the blank that neighbours share, legalised with the exact pairwise
// blank-sharing rule. It is one sort and one O(n^2) exact pack, its plan
// depends on no option, and it runs on a pooled workspace, so it allocates
// only the plan it returns.
//
// SolveClustered is the paper's flow (Fig. 9): the same pre-filter, KD-tree
// based clustering of character candidates with similar geometry and profit
// (Algorithm 4), and a simulated-annealing fixed-outline floorplanner over
// the clustered blocks (sequence pair representation), raced against the
// shelf. After annealing, clusters are expanded back into their member
// characters and the placement is legalised with the exact pairwise
// blank-sharing rule. The paper's tables (internal/report) run it. It is
// the served planner's cost times about 150: on the service's plan2d pools
// at seeds 1 and 7919 its anneal beats the shelf on 1 of 200 jobs.
package twod

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"eblow/internal/core"
	"eblow/internal/floorsa"
	"eblow/internal/kdtree"
	"eblow/internal/pack2d"
	"eblow/internal/par"
)

// The paper's parameter settings of the 2D planner.
const (
	// similarityBound is the relative difference allowed by the clustering
	// similarity test of Eqn. (8).
	similarityBound = 0.2
	// preFilterFactor keeps preFilterFactor * (stencil area / average
	// character area) candidates before clustering.
	preFilterFactor = 2.5
	// maxClusterMembers bounds how many characters one cluster may absorb.
	maxClusterMembers = 3
)

// Options configures SolveClustered; the clustering parameters are the
// constants above. Solve reads none of it.
type Options struct {
	// MoveBudget is the annealing move budget (0 = automatic).
	MoveBudget int
	// Seed seeds the annealer.
	Seed int64
	// Restarts is the number of independent annealing restarts raced inside
	// the floorplanner (best-of wins); 0 means 1.
	Restarts int
	// Workers bounds the number of goroutines used by the parallel stages
	// (annealing restarts, and the clustered-vs-shelf race). 0 means one
	// worker per CPU; 1 forces the sequential flow. As long as no context
	// deadline truncates the annealing schedule, the planner returns the
	// same solution for every worker count; a truncated schedule stops on
	// wall clock, which no worker count can make reproducible.
	Workers int
}

// Defaults returns the paper's settings: every option at its zero value.
func Defaults() Options { return Options{} }

// workerCount resolves Options.Workers: 0 means one worker per CPU.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// cluster is a group of characters packed side by side that the annealer
// treats as one block.
type cluster struct {
	block   pack2d.Block
	members []int // character ids
	offsets [][2]int
	profit  float64
	reds    []int64
}

// Stats reports what the pre-filter kept and, for SolveClustered only,
// what the clustering stage did and how much annealing work the clustered
// floorplan took; exposed for tests and the benchmark harness. Solve leaves
// Clusters, ClusteredAway, Moves and Accepted at zero. Moves and Accepted
// are the clustered anneal's floorsa.Result counters, summed over restarts:
// deterministic for a given seed at any worker count (as long as no
// deadline truncates the schedule), but kept out of plans and digests.
type Stats struct {
	Candidates    int
	AfterFilter   int
	Clusters      int
	ClusteredAway int
	Moves         int
	Accepted      int
}

// Solve runs the served E-BLOW 2D planner and returns the stencil plan plus
// the pre-filter's statistics: the pre-filtered characters, packed in one
// shelf floorplan. An already-done context returns ctx.Err() before any
// work happens. The plan depends on no field of opt. Solve draws its
// buffers from a pool of workspaces, so the only memory it allocates is
// the plan and the statistics it returns.
func Solve(ctx context.Context, in *core.Instance, _ Options) (*core.Solution, *Stats, error) {
	ws, _ := workspaces.Get().(*workspace)
	if ws == nil {
		ws = new(workspace)
	}
	defer workspaces.Put(ws)
	return ws.solve(ctx, in)
}

// workspaces holds the *workspace buffers Solve reuses across calls.
var workspaces sync.Pool

// workspace holds the buffers of one Solve: the pre-filter's candidates and
// profits, the kept characters' reductions and blocks, the pure-VSB region
// times and the shelf's own buffers. Every buffer is fully written before
// it is read, so a plan does not depend on what the workspace held.
type workspace struct {
	ids     []int // candidates; after the pre-filter, the kept ones
	profits []float64
	flat    []int64   // reductions of the kept characters, NumRegions each
	reds    [][]int64 // reds[k] is ids[k]'s row of flat
	blocks  []pack2d.Block
	vsb     []int64
	shelf   floorsa.Workspace
}

// solve is Solve on the workspace's buffers.
func (ws *workspace) solve(ctx context.Context, in *core.Instance) (*core.Solution, *Stats, error) {
	start := time.Now()
	stats, err := ws.prepare(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	ws.charBlocks(in)
	ws.vsb = in.VSBTimeInto(ws.vsb)
	shelf := ws.shelf.Shelf(ws.blocks, ws.reds, ws.vsb, in.StencilWidth, in.StencilHeight)
	sol := charPlan(in, ws.ids, shelf)
	sol.Finalize(in, "E-BLOW-2D", time.Since(start))
	return sol, stats, nil
}

// SolveClustered runs the paper's E-BLOW 2D flow (Fig. 9) and returns the
// stencil plan plus clustering statistics. The context cancels the run: an
// already-done context returns ctx.Err() before any work happens and a
// context that expires before the annealing stage surfaces ctx.Err(); one
// that expires during annealing truncates the schedule and the best
// legalised floorplan found so far is still returned. The flow is
// deterministic for a given seed regardless of opt.Workers, provided no
// deadline cuts the annealing schedule short (see Options.Workers).
func SolveClustered(ctx context.Context, in *core.Instance, opt Options) (*core.Solution, *Stats, error) {
	start := time.Now()
	ws := new(workspace)
	stats, err := ws.prepare(ctx, in)
	if err != nil {
		return nil, nil, err
	}
	ids, profits := ws.ids, ws.profits
	reds := make([][]int64, in.NumCharacters()) // by character id
	for k, id := range ids {
		reds[id] = ws.reds[k]
	}

	// Clustering (Algorithm 4).
	clusters := buildClusters(in, ids, profits, reds, similarityBound, maxClusterMembers)
	stats.Clusters = len(clusters)
	stats.ClusteredAway = stats.AfterFilter - len(clusters)
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Annealing over the clustered blocks with the MCC (max) objective, and
	// — because clustering occasionally costs more stencil area than it
	// saves in search effort — the plain per-character shelf floorplan as a
	// fallback. The two packings are independent, so they race on the
	// worker pool; whichever selection writes faster wins.
	blocks := make([]floorsa.Block, len(clusters))
	for k, cl := range clusters {
		blocks[k] = floorsa.Block{Block: cl.block, Reductions: cl.reds}
	}
	ws.charBlocks(in)
	vsb := in.VSBTime()
	workers := opt.workerCount()
	var res, fallback *floorsa.Result
	par.Do(workers,
		func() {
			res = floorsa.Pack(ctx, blocks, vsb, in.StencilWidth, in.StencilHeight, floorsa.Options{
				MoveBudget: opt.MoveBudget,
				Seed:       opt.Seed,
				Restarts:   opt.Restarts,
				Workers:    workers,
			})
		},
		func() {
			fallback = ws.shelf.Shelf(ws.blocks, ws.reds, vsb, in.StencilWidth, in.StencilHeight)
		},
	)
	// No ctx check here on purpose: a deadline that expired during the
	// annealing truncated the schedule, and Pack already legalised the
	// best floorplan found — returning it beats discarding finished work.
	stats.Moves, stats.Accepted = res.Moves, res.Accepted

	var sol *core.Solution
	if res.WritingTime <= fallback.WritingTime {
		sol = clusterPlan(in, clusters, res)
	} else {
		sol = charPlan(in, ids, fallback)
	}
	sol.Finalize(in, "E-BLOW-2D", time.Since(start))
	return sol, stats, nil
}

// prepare validates the instance and runs the pre-filter into the
// workspace: ids holds the kept candidates, profits every character's
// static profit, and reds[k] the per-region reductions of ids[k].
func (ws *workspace) prepare(ctx context.Context, in *core.Instance) (*Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	if in.Kind != core.TwoD {
		return nil, fmt.Errorf("twod: instance %q is not a 2DOSP instance", in.Name)
	}
	stats := &Stats{Candidates: in.NumCharacters()}

	// Pre-filter: keep the most profitable candidates, bounded by a factor
	// of the estimated stencil capacity.
	ws.profits = in.StaticProfitsInto(ws.profits)
	ws.ids = preFilter(in, candidateIDs(in, ws.ids[:0]), ws.profits, preFilterFactor)
	stats.AfterFilter = len(ws.ids)

	r, n := in.NumRegions, len(ws.ids)
	ws.flat = slices.Grow(ws.flat[:0], n*r)[:n*r]
	ws.reds = slices.Grow(ws.reds[:0], n)
	for k, id := range ws.ids {
		row := ws.flat[k*r : (k+1)*r : (k+1)*r]
		for c := range row {
			row[c] = in.Reduction(id, c)
		}
		ws.reds = append(ws.reds, row)
	}
	return stats, nil
}

// charBlocks sets the workspace's blocks to one per kept candidate.
func (ws *workspace) charBlocks(in *core.Instance) {
	ws.blocks = slices.Grow(ws.blocks[:0], len(ws.ids))
	for _, id := range ws.ids {
		c := in.Characters[id]
		ws.blocks = append(ws.blocks, pack2d.Block{
			W: c.Width, H: c.Height,
			BlankL: c.BlankLeft, BlankR: c.BlankRight,
			BlankT: c.BlankTop, BlankB: c.BlankBottom,
		})
	}
}

// charPlan turns a packing of the blocks of ids into a plan: the blocks
// inside the outline are the selected characters.
func charPlan(in *core.Instance, ids []int, res *floorsa.Result) *core.Solution {
	sol := &core.Solution{
		Selected:   make([]bool, in.NumCharacters()),
		Placements: make([]core.Placement, 0, countTrue(res.Inside)),
	}
	for k, id := range ids {
		if !res.Inside[k] {
			continue
		}
		sol.Selected[id] = true
		sol.Placements = append(sol.Placements, core.Placement{Char: id, X: res.X[k], Y: res.Y[k]})
	}
	return sol
}

// countTrue returns how many flags are set.
func countTrue(flags []bool) int {
	n := 0
	for _, f := range flags {
		if f {
			n++
		}
	}
	return n
}

// clusterPlan expands a packing of the clusters' blocks back into
// characters.
func clusterPlan(in *core.Instance, clusters []cluster, res *floorsa.Result) *core.Solution {
	n := 0
	for k, cl := range clusters {
		if res.Inside[k] {
			n += len(cl.members)
		}
	}
	sol := &core.Solution{Selected: make([]bool, in.NumCharacters()), Placements: make([]core.Placement, 0, n)}
	for k, cl := range clusters {
		if !res.Inside[k] {
			continue
		}
		for mi, id := range cl.members {
			sol.Selected[id] = true
			sol.Placements = append(sol.Placements, core.Placement{
				Char: id,
				X:    res.X[k] + cl.offsets[mi][0],
				Y:    res.Y[k] + cl.offsets[mi][1],
			})
		}
	}
	return sol
}

// candidateIDs appends to ids the characters that fit the stencil.
func candidateIDs(in *core.Instance, ids []int) []int {
	for i, c := range in.Characters {
		if c.Width <= in.StencilWidth && c.Height <= in.StencilHeight {
			ids = append(ids, i)
		}
	}
	return ids
}

// preFilter keeps the top candidates by profit per area. It sorts ids in
// place when it cuts them, and returns them in their given order when it
// keeps them all.
func preFilter(in *core.Instance, ids []int, profits []float64, factor float64) []int {
	if len(ids) == 0 {
		return ids
	}
	var totalArea int64
	for _, i := range ids {
		totalArea += int64(in.Characters[i].Width) * int64(in.Characters[i].Height)
	}
	avgArea := float64(totalArea) / float64(len(ids))
	limit := int(factor * float64(in.StencilWidth) * float64(in.StencilHeight) / avgArea)
	if limit < 1 {
		limit = 1
	}
	if limit >= len(ids) {
		return ids
	}
	density := func(id int) float64 {
		return profits[id] / float64(in.Characters[id].Width*in.Characters[id].Height)
	}
	slices.SortFunc(ids, func(a, b int) int {
		return cmp.Or(cmp.Compare(density(b), density(a)), cmp.Compare(a, b))
	})
	return ids[:limit]
}

// feature embeds a character into the 5-dimensional space used by the
// similarity test: width, height, horizontal blank, vertical blank, profit.
func feature(in *core.Instance, profits []float64, id int) kdtree.Point {
	c := in.Characters[id]
	return kdtree.Point{
		float64(c.Width),
		float64(c.Height),
		float64(c.BlankLeft+c.BlankRight) / 2,
		float64(c.BlankTop+c.BlankBottom) / 2,
		profits[id],
	}
}

// similar implements the similarity condition (8) of the paper: relative
// differences in size, blanks and profit are all within the bound.
func similar(in *core.Instance, profits []float64, i, j int, bound float64) bool {
	a, b := in.Characters[i], in.Characters[j]
	relOK := func(x, y float64) bool {
		if y == 0 {
			return x == 0
		}
		return math.Abs(x-y)/math.Abs(y) <= bound
	}
	if !relOK(float64(a.Width), float64(b.Width)) || !relOK(float64(a.Height), float64(b.Height)) {
		return false
	}
	sha := float64(a.BlankLeft+a.BlankRight) / 2
	shb := float64(b.BlankLeft+b.BlankRight) / 2
	sva := float64(a.BlankTop+a.BlankBottom) / 2
	svb := float64(b.BlankTop+b.BlankBottom) / 2
	if !relOK(sha, shb) || !relOK(sva, svb) {
		return false
	}
	return relOK(profits[i], profits[j])
}

// buildClusters runs Algorithm 4: candidates sorted by profit repeatedly
// absorb similar unclustered candidates (within bound, see similar) found
// through KD-tree range queries, up to maxMembers characters per cluster.
func buildClusters(in *core.Instance, ids []int, profits []float64, reds [][]int64, bound float64, maxMembers int) []cluster {
	clusters := make([]cluster, 0, len(ids))

	sorted := append([]int(nil), ids...)
	sort.Slice(sorted, func(a, b int) bool {
		if profits[sorted[a]] != profits[sorted[b]] {
			return profits[sorted[a]] > profits[sorted[b]]
		}
		return sorted[a] < sorted[b]
	})

	// KD-tree over the feature vectors of all unclustered candidates.
	points := make([]kdtree.Point, len(sorted))
	for k, id := range sorted {
		points[k] = feature(in, profits, id)
	}
	tree := kdtree.Build(5, points, sorted)

	clustered := make(map[int]bool, len(sorted))

	for _, id := range sorted {
		if clustered[id] {
			continue
		}
		cl := singletonCluster(in, profits, reds, id)
		clustered[id] = true
		tree.Delete(id)
		// Grow the cluster while similar unclustered candidates exist.
		for len(cl.members) < maxMembers {
			f := feature(in, profits, id)
			lo := make(kdtree.Point, len(f))
			hi := make(kdtree.Point, len(f))
			for d := range f {
				delta := math.Abs(f[d]) * bound
				lo[d], hi[d] = f[d]-delta, f[d]+delta
			}
			found := -1
			for _, cand := range tree.Range(lo, hi) {
				if !clustered[cand] && similar(in, profits, id, cand, bound) &&
					absorb(in, profits, reds, &cl, cand) {
					found = cand
					break
				}
			}
			if found < 0 {
				break
			}
			clustered[found] = true
			tree.Delete(found)
		}
		clusters = append(clusters, cl)
	}
	return clusters
}

func singletonCluster(in *core.Instance, profits []float64, reds [][]int64, id int) cluster {
	c := in.Characters[id]
	return cluster{
		block: pack2d.Block{
			W: c.Width, H: c.Height,
			BlankL: c.BlankLeft, BlankR: c.BlankRight,
			BlankT: c.BlankTop, BlankB: c.BlankBottom,
		},
		members: []int{id},
		offsets: [][2]int{{0, 0}},
		profit:  profits[id],
		reds:    append([]int64(nil), reds[id]...),
	}
}

// absorb merges character id into the cluster, choosing the orientation
// (horizontal or vertical stacking) that wastes less bounding-box area. It
// reports whether the merge happened: merges that would waste more than a
// few percent of the combined area are rejected, because a padded cluster
// block squanders stencil space the annealer can never recover.
//
// Blank margins of the merged block: the side along the merge direction
// keeps the outer member's exact blank (only that member touches the edge);
// the perpendicular sides take the minimum over both members, which keeps
// every later sharing decision with a neighbouring block conservative and
// therefore legal.
func absorb(in *core.Instance, profits []float64, reds [][]int64, cl *cluster, id int) bool {
	c := in.Characters[id]

	hShare := min(cl.block.BlankR, c.BlankLeft)
	hW := cl.block.W + c.Width - hShare
	hH := max(cl.block.H, c.Height)

	vShare := min(cl.block.BlankT, c.BlankBottom)
	vW := max(cl.block.W, c.Width)
	vH := cl.block.H + c.Height - vShare

	memberArea := cl.block.W*cl.block.H + c.Width*c.Height
	horizontal := hW*hH <= vW*vH
	mergedArea := vW * vH
	if horizontal {
		mergedArea = hW * hH
	}
	const maxWasteFraction = 0.06
	if float64(mergedArea-memberArea) > maxWasteFraction*float64(mergedArea) {
		return false
	}

	if horizontal {
		cl.offsets = append(cl.offsets, [2]int{cl.block.W - hShare, 0})
		cl.block.W, cl.block.H = hW, hH
		cl.block.BlankR = c.BlankRight
		cl.block.BlankT = min(cl.block.BlankT, c.BlankTop)
		cl.block.BlankB = min(cl.block.BlankB, c.BlankBottom)
	} else {
		cl.offsets = append(cl.offsets, [2]int{0, cl.block.H - vShare})
		cl.block.W, cl.block.H = vW, vH
		cl.block.BlankT = c.BlankTop
		cl.block.BlankL = min(cl.block.BlankL, c.BlankLeft)
		cl.block.BlankR = min(cl.block.BlankR, c.BlankRight)
	}
	cl.members = append(cl.members, id)
	cl.profit += profits[id]
	for r := range cl.reds {
		cl.reds[r] += reds[id][r]
	}
	return true
}
