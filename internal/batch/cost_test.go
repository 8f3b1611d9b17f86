package batch

import (
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// TestEstimate2DOrder pins the 2D strategies' cost order on plan2d-sized
// and tiny instances: greedy below the served E-BLOW shelf pack, which is
// below sa24's anneal.
func TestEstimate2DOrder(t *testing.T) {
	for _, chars := range []int{6, 200, 3000, 20000} {
		in := gen.Small(core.TwoD, chars, 10, 1)
		greedy, eblow, sa24 := Estimate(in, "greedy"), Estimate(in, "eblow"), Estimate(in, "sa24")
		if !(greedy < eblow && eblow < sa24) {
			t.Errorf("%d chars: greedy %.0f, eblow %.0f, sa24 %.0f; want increasing", chars, greedy, eblow, sa24)
		}
	}
}
