package dispatch

import (
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// synthInstance builds an instance of n identical characters (width w,
// height h, blanks bl/br left and right, vsb shots each) on a sw x sh
// stencil with row height rowH. routingKey reads only these fields.
func synthInstance(kind core.Kind, regions, n, w, h, bl, br, vsb, sw, sh, rowH int) *core.Instance {
	in := &core.Instance{
		Kind: kind, NumRegions: regions,
		StencilWidth: sw, StencilHeight: sh, RowHeight: rowH,
	}
	for i := 0; i < n; i++ {
		in.Characters = append(in.Characters, core.Character{
			ID: i, Width: w, Height: h, BlankLeft: bl, BlankRight: br, VSBShots: vsb,
		})
	}
	return in
}

// TestRoutingKeyPinned freezes the routing key's bytes. The dispatcher WAL
// stores the key of every accepted job, and a restarted dispatcher must
// route the replayed table exactly as before, so any change here is a
// routing-policy change, not a refactor. The cases sit on every bucket
// edge (regions 1/4/16/17, chars 50/400/1500, mean VSB 10/30, footprint
// over capacity 0.8/2, zero capacity) and cover both kinds plus the
// plan1d, plan2d and 1T/2T instance shapes.
func TestRoutingKeyPinned(t *testing.T) {
	plan1d := gen.Generate(gen.Params{
		Kind: core.OneD, NumChars: 600, NumRegions: 10,
		StencilW: 800, StencilH: 800, RowHeight: 40,
		MinWidth: 28, MaxWidth: 44, MinBlank: 4, MaxBlank: 14,
		MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
		MaxRepeat: 25, RegionSkew: 0.85, Seed: 1,
	})
	plan2d := gen.Generate(gen.Params{
		Kind: core.TwoD, NumChars: 200, NumRegions: 10,
		StencilW: 400, StencilH: 400,
		MinWidth: 28, MaxWidth: 48, MinHeight: 28, MaxHeight: 48,
		MinBlank: 4, MaxBlank: 14,
		MinShots: 2, MaxShots: 60, ShotAreaUnit: 45,
		MaxRepeat: 25, RegionSkew: 0.85, Seed: 1,
	})
	cases := []struct {
		name string
		in   *core.Instance
		want string
	}{
		// 1D demand is n*(w - ceil((bl+br)/2)); capacity rows*sw.
		{"1D r1 c50 vsb10 ratio1", synthInstance(core.OneD, 1, 50, 14, 10, 3, 4, 10, 100, 50, 10),
			"1DOSP/regions=1/chars=tiny/vsb=medium/blank=tight"},
		{"1D r4 c400 vsb30 ratio0.8", synthInstance(core.OneD, 4, 400, 10, 10, 0, 0, 30, 100, 500, 10),
			"1DOSP/regions=2-4/chars=small/vsb=high/blank=loose"},
		{"1D r16 c1500 vsb9 ratio2", synthInstance(core.OneD, 16, 1500, 10, 10, 0, 0, 9, 150, 500, 10),
			"1DOSP/regions=5-16/chars=medium/vsb=low/blank=tight"},
		{"1D r17 c1501 vsb29 ratio3", synthInstance(core.OneD, 17, 1501, 10, 10, 0, 0, 29, 100, 500, 10),
			"1DOSP/regions=>16/chars=large/vsb=medium/blank=over"},
		{"1D zero rows", synthInstance(core.OneD, 5, 51, 10, 10, 0, 0, 1, 100, 500, 0),
			"1DOSP/regions=5-16/chars=small/vsb=low/blank=over"},
		{"2D r2 c401 vsb10 loose", synthInstance(core.TwoD, 2, 401, 10, 10, 2, 2, 10, 300, 300, 0),
			"2DOSP/regions=2-4/chars=medium/vsb=medium/blank=loose"},
		{"2D r17 c50 vsb30 ratio2", synthInstance(core.TwoD, 17, 50, 10, 10, 0, 0, 30, 50, 50, 0),
			"2DOSP/regions=>16/chars=tiny/vsb=high/blank=tight"},
		{"2D zero height", synthInstance(core.TwoD, 1, 1501, 10, 10, 0, 0, 40, 300, 0, 0),
			"2DOSP/regions=1/chars=large/vsb=high/blank=over"},
		{"plan1d", plan1d, "1DOSP/regions=5-16/chars=medium/vsb=medium/blank=tight"},
		{"plan2d", plan2d, "2DOSP/regions=5-16/chars=small/vsb=low/blank=tight"},
		{"1T-1", gen.Tiny1T(1), "1DOSP/regions=1/chars=tiny/vsb=medium/blank=tight"},
		{"2T-1", gen.Tiny2T(1), "2DOSP/regions=1/chars=tiny/vsb=medium/blank=loose"},
	}
	for _, c := range cases {
		if got := routingKey(c.in); got != c.want {
			t.Errorf("%s: routingKey = %q, want %q", c.name, got, c.want)
		}
	}
}
