package core

// This file implements the MCC writing-time model of Section 2.1 of the
// paper: region writing times, the max-over-regions objective (Eqn. 1), the
// per-character reduction R_ic, and the dynamic profit function (Eqn. 6)
// used by the successive-rounding and clustering heuristics.

// VSBTime returns T_VSB_c for every region: the writing time when no
// character at all is prepared on the stencil (pure VSB writing).
func (in *Instance) VSBTime() []int64 {
	return in.VSBTimeInto(nil)
}

// VSBTimeInto is VSBTime into t, whose capacity it reuses; it returns the
// times.
func (in *Instance) VSBTimeInto(t []int64) []int64 {
	t = append(t[:0], make([]int64, in.NumRegions)...)
	for _, c := range in.Characters {
		for r, rep := range c.Repeats {
			t[r] += rep * int64(c.VSBShots)
		}
	}
	return t
}

// Reduction returns R_ic = t_ic * (n_i - 1): the writing-time reduction in
// region c obtained by preparing character i on the stencil.
func (in *Instance) Reduction(i, c int) int64 {
	ch := in.Characters[i]
	return ch.Repeats[c] * int64(ch.VSBShots-1)
}

// RegionTimes returns the per-region writing times T_c for a selection
// vector: T_c = T_VSB_c - sum_{i selected} R_ic.
func (in *Instance) RegionTimes(selected []bool) []int64 {
	t := in.VSBTime()
	for i, sel := range selected {
		if !sel {
			continue
		}
		ch := in.Characters[i]
		for r, rep := range ch.Repeats {
			t[r] -= rep * int64(ch.VSBShots-1)
		}
	}
	return t
}

// WritingTime evaluates the MCC objective (Eqn. 1): the maximum region
// writing time under the given selection.
func (in *Instance) WritingTime(selected []bool) int64 {
	return MaxInt64(in.RegionTimes(selected))
}

// Profits computes the dynamic profit value of Eqn. (6) for every character:
//
//	profit_i = sum_c (t_c / t_max) * (n_i - 1) * t_ic
//
// where t_c are the current region writing times. Regions that are currently
// slow therefore weigh more, steering the selection towards balancing the
// MCC system. The returned slice has one entry per character; characters
// already selected still get a profit (callers typically ignore them).
func (in *Instance) Profits(regionTimes []int64) []float64 {
	tmax := MaxInt64(regionTimes)
	profits := make([]float64, len(in.Characters))
	if tmax <= 0 {
		return profits
	}
	for i, c := range in.Characters {
		var p float64
		for r, rep := range c.Repeats {
			w := float64(regionTimes[r]) / float64(tmax)
			p += w * float64(c.VSBShots-1) * float64(rep)
		}
		profits[i] = p
	}
	return profits
}

// StaticProfits returns the selection-independent profit sum_c R_ic, i.e. the
// total writing-time reduction of a character across all regions. It is the
// profit used when region balancing is irrelevant (single-CP systems).
func (in *Instance) StaticProfits() []float64 {
	return in.StaticProfitsInto(nil)
}

// StaticProfitsInto is StaticProfits into profits, whose capacity it
// reuses; it returns the profits.
func (in *Instance) StaticProfitsInto(profits []float64) []float64 {
	profits = append(profits[:0], make([]float64, len(in.Characters))...)
	for i, c := range in.Characters {
		var p int64
		for _, rep := range c.Repeats {
			p += rep * int64(c.VSBShots-1)
		}
		profits[i] = float64(p)
	}
	return profits
}

// MaxInt64 returns the maximum of a non-empty slice, or 0 for an empty one.
func MaxInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
