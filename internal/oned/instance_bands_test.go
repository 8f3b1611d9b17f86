package oned

import (
	"context"
	"reflect"
	"testing"

	"eblow/internal/core"
	"eblow/internal/gen"
)

// The instance's column-cell banding is the one source of row bands: a
// banded instance places every character on a band row only if it repeats
// in the band's region, and an instance whose one band is open solves
// exactly like the unbanded instance.
func TestInstanceRowGroupsBandThePlan(t *testing.T) {
	plain := gen.Small(0, 60, 4, 17)
	bands := gen.CellBands(plain)
	if bands == nil {
		t.Fatal("test instance cannot be banded")
	}
	opt := Defaults()
	opt.Workers = 2

	banded := withBands(plain, bands)
	sol, _, err := Solve(context.Background(), banded, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sol.NumSelected() == 0 {
		t.Fatal("banded instance planned an empty stencil")
	}
	for _, row := range sol.Rows {
		region := bands[row.Y/banded.RowHeight%len(bands)].Regions[0]
		for _, c := range row.Chars {
			if banded.Characters[c].Repeats[region] == 0 {
				t.Errorf("character %d on a row of region %d's band, where it does not repeat", c, region)
			}
		}
	}

	open, _, err := Solve(context.Background(), withBands(plain, []core.RowGroup{{}}), opt)
	if err != nil {
		t.Fatal(err)
	}
	solPlain, _, err := Solve(context.Background(), plain, opt)
	if err != nil {
		t.Fatal(err)
	}
	if open.WritingTime != solPlain.WritingTime ||
		!reflect.DeepEqual(open.Selected, solPlain.Selected) ||
		!reflect.DeepEqual(open.Placements, solPlain.Placements) {
		t.Fatalf("an open band planned differently from no bands: T=%d vs T=%d", open.WritingTime, solPlain.WritingTime)
	}
}
