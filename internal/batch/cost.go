package batch

import "eblow/internal/core"

// Estimate returns the scheduler's cost estimate for running the strategy
// on the instance, in rough microseconds of expected solve time; the
// scheduler consumes only the relative order. The model is chars x regions
// x a per-strategy factor: coarse, but it only has to rank a tiny greedy
// job below a medium annealing job, which it does by orders of magnitude.
func Estimate(in *core.Instance, strategy string) float64 {
	chars := float64(in.NumCharacters())
	regions := float64(in.NumRegions)
	if regions < 1 {
		regions = 1
	}
	// shelf prices floorsa.Shelf: a sort plus one quadratic exact legalize.
	shelf := 5*chars + 0.01*chars*chars
	switch strategy {
	case "greedy", "row25":
		// Sort-and-pack passes: near-linear, no annealing.
		return 5 * chars
	case "heuristic24":
		// Two-step heuristic with a swap-improvement loop.
		return 40 * chars
	case "sa24":
		// Annealing cost follows the move budget (floorsa.defaultBudget
		// scales 40n clamped to [2000, 60000]) on top of the shelf the
		// annealer starts from and legalizes against.
		moves := 40 * chars
		if moves < 2000 {
			moves = 2000
		}
		if moves > 60000 {
			moves = 60000
		}
		return 0.5*moves + shelf
	case "eblow":
		if in.Kind == core.OneD {
			// Successive rounding over an LP relaxation: the matrix grows
			// with both candidates and regions.
			return 50 * chars * regions
		}
		// One shelf pack of the pre-filtered characters.
		return shelf
	case "exact":
		// Branch and bound: super-quadratic even on tiny instances.
		return 1000 * chars * chars
	default:
		// Unknown or meta-strategy ("portfolio"): assume the full race.
		return 100 * chars * regions
	}
}
