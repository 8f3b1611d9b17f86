package oned

import (
	"slices"

	"eblow/internal/knapsack"
	"eblow/internal/par"
)

// This file implements the block decomposition of the LP relaxation of
// formulation (4)/(5). When the instance's RowGroups pin stencil row bands to
// wafer regions (the per-column-cell stencils of an MCC system), the
// capacity matrix of the relaxation is block-diagonal across disjoint row
// groups. The planner detects the independent blocks with a union-find over
// the character-row candidacy graph, solves every block as its own
// sub-problem on the shared worker pool, and merges the fractional
// assignment matrices in block index order, so the result is identical for
// every worker count.
//
// Every block is solved as a fractional multiple knapsack
// (knapsack.Workspace.Relax) over its own rows: the block pools those rows'
// capacities and ignores which of them a bridging character may use, which
// keeps each solve O(n log n). Integral assignments are still
// candidacy-checked by fits(). Without row groups there is a single block
// holding the whole problem.

// initRowGroups builds the candidacy tables of the instance's row groups,
// which core validation has already checked: rowGroup[j] is the group
// owning row j (-1 = open row, usable by everyone) and charGroups[i] is the
// bitmask of groups whose regions character i repeats in. Groups with an
// empty region list are open: their rows stay at -1.
func (s *solver) initRowGroups() {
	groups := s.in.RowGroups
	if len(groups) == 0 {
		return
	}
	s.rowGroup = make([]int, s.m)
	for j := range s.rowGroup {
		s.rowGroup[j] = -1
	}
	for g, grp := range groups {
		if len(grp.Regions) == 0 {
			continue // open rows
		}
		for _, j := range grp.Rows {
			s.rowGroup[j] = g
		}
	}
	s.charGroups = make([]uint64, s.n)
	for i, c := range s.in.Characters {
		var mask uint64
		for g, grp := range groups {
			if len(grp.Regions) == 0 {
				continue
			}
			for _, r := range grp.Regions {
				if c.Repeats[r] > 0 {
					mask |= 1 << uint(g)
					break
				}
			}
		}
		s.charGroups[i] = mask
	}
}

// allowed reports whether character i may be assigned to row j under the
// row-group candidacy. Without row groups every pair is allowed.
func (s *solver) allowed(i, j int) bool {
	if s.rowGroup == nil {
		return true
	}
	g := s.rowGroup[j]
	return g < 0 || s.charGroups[i]&(1<<uint(g)) != 0
}

// relaxBlock is one independent sub-problem of the restricted relaxation:
// characters (as indices into the iteration's unsolved slice) plus the rows
// they are candidates for, both in ascending order.
type relaxBlock struct {
	chars []int
	rows  []int
}

// relaxBlocks partitions the relaxation over the unsolved characters into
// independent blocks with a union-find over the character-row candidacy
// graph. Blocks are ordered by their smallest row index, so the merge order
// is deterministic. Characters with no candidate row belong to no block
// (their relaxation row stays zero); rows no unsolved character may use form
// row-only components and are dropped the same way.
func (s *solver) relaxBlocks(unsolved []int) []relaxBlock {
	nu := len(unsolved)
	if s.rowGroup == nil {
		// One block over everything, built from index lists sized by the
		// first (largest) unsolved set and resliced afterwards.
		if len(s.iota) < nu {
			s.iota = make([]int, nu)
			for k := range s.iota {
				s.iota[k] = k
			}
		}
		if s.allRows == nil {
			s.allRows = make([]int, s.m)
			for j := range s.allRows {
				s.allRows[j] = j
			}
		}
		s.oneBlock[0] = relaxBlock{chars: s.iota[:nu], rows: s.allRows}
		return s.oneBlock[:]
	}

	parent := make([]int, nu+s.m)
	for v := range parent {
		parent[v] = v
	}
	var find func(int) int
	find = func(v int) int {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for k, i := range unsolved {
		for j := 0; j < s.m; j++ {
			if s.allowed(i, j) {
				parent[find(k)] = find(nu + j)
			}
		}
	}

	index := make(map[int]int)
	var blocks []relaxBlock
	for j := 0; j < s.m; j++ {
		root := find(nu + j)
		bi, ok := index[root]
		if !ok {
			bi = len(blocks)
			index[root] = bi
			blocks = append(blocks, relaxBlock{})
		}
		blocks[bi].rows = append(blocks[bi].rows, j)
	}
	for k := range unsolved {
		// A character with at least one candidate row shares its root with a
		// row component; one with none is its own root and stays blockless.
		if bi, ok := index[find(k)]; ok {
			blocks[bi].chars = append(blocks[bi].chars, k)
		}
	}
	// Drop row-only components: nothing to solve there.
	kept := blocks[:0]
	for _, b := range blocks {
		if len(b.chars) > 0 {
			kept = append(kept, b)
		}
	}
	return kept
}

// blockWork is one block's reusable scratch and result. The solver keeps
// one per block index, so blocks solved concurrently never share one.
type blockWork struct {
	ks    knapsack.Workspace
	items []knapsack.Item
	caps  []float64
	a     []float64 // the block's own chars x rows split, before the scatter
	err   error
}

// whole reports whether block b is the entire relaxation over nu unsolved
// characters: every character and every row, both in order.
func (s *solver) whole(b relaxBlock, nu int) bool {
	return len(b.chars) == nu && len(b.rows) == s.m
}

// solveRelaxationBlocks solves the (restricted) relaxation block by block on
// the worker pool and merges the per-block fractional assignments into the
// solver's relaxation buffer, indexed like `unsolved`. Every block writes
// only its own characters' rows, so the merge is deterministic for any
// worker count.
func (s *solver) solveRelaxationBlocks(unsolved []int, caps []float64, blocks []relaxBlock) ([]float64, error) {
	nu := len(unsolved)
	if cap(s.relax) < nu*s.m {
		s.relax = make([]float64, nu*s.m)
	}
	a := s.relax[:nu*s.m]
	if len(s.work) < len(blocks) {
		s.work = append(s.work, make([]blockWork, len(blocks)-len(s.work))...)
	}
	if len(blocks) != 1 || !s.whole(blocks[0], nu) {
		// Entries outside every block stay zero; only a whole block
		// overwrites the entire matrix itself.
		clear(a)
	}
	par.For(s.opt.workerCount(), len(blocks), func(bi int) {
		w := &s.work[bi]
		w.err = s.solveRelaxBlock(w, blocks[bi], unsolved, caps, a)
	})
	for _, w := range s.work[:len(blocks)] {
		if w.err != nil {
			return nil, w.err
		}
	}
	return a, nil
}

// solveRelaxBlock solves one block as a fractional multiple knapsack over
// the block's pooled row capacities, using the block's workspace w, and
// scatters the result into the shared flat assignment matrix a
// (len(unsolved) x m).
func (s *solver) solveRelaxBlock(w *blockWork, b relaxBlock, unsolved []int, caps []float64, a []float64) error {
	items := slices.Grow(w.items[:0], len(b.chars))
	for _, k := range b.chars {
		i := unsolved[k]
		items = append(items, knapsack.Item{Weight: float64(s.effW[i]), Profit: s.profits[i]})
	}
	w.items = items
	if s.whole(b, len(unsolved)) {
		// The block's matrix is a itself.
		_, err := w.ks.Relax(items, caps, a)
		return err
	}
	subcaps := slices.Grow(w.caps[:0], len(b.rows))
	for _, j := range b.rows {
		subcaps = append(subcaps, caps[j])
	}
	w.caps = subcaps
	nb := len(b.rows)
	w.a = slices.Grow(w.a[:0], len(items)*nb)[:len(items)*nb]
	if _, err := w.ks.Relax(items, subcaps, w.a); err != nil {
		return err
	}
	for bk, k := range b.chars {
		for bj, j := range b.rows {
			a[k*s.m+j] = w.a[bk*nb+bj]
		}
	}
	return nil
}
