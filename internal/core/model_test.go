package core

import (
	"strings"
	"testing"
)

// tinyInstance builds a small 1DOSP instance used across the core tests:
// three characters, two regions, one row.
func tinyInstance() *Instance {
	return &Instance{
		Name:          "tiny",
		Kind:          OneD,
		StencilWidth:  100,
		StencilHeight: 40,
		NumRegions:    2,
		RowHeight:     40,
		Characters: []Character{
			{ID: 0, Width: 40, Height: 40, BlankLeft: 5, BlankRight: 5, VSBShots: 10, Repeats: []int64{3, 1}},
			{ID: 1, Width: 40, Height: 40, BlankLeft: 8, BlankRight: 8, VSBShots: 5, Repeats: []int64{2, 4}},
			{ID: 2, Width: 40, Height: 40, BlankLeft: 2, BlankRight: 2, VSBShots: 20, Repeats: []int64{0, 5}},
		},
	}
}

func TestCharacterGeometry(t *testing.T) {
	c := Character{ID: 0, Width: 50, Height: 30, BlankLeft: 4, BlankRight: 6, BlankTop: 2, BlankBottom: 3}
	if got := c.PatternWidth(); got != 40 {
		t.Errorf("PatternWidth = %d, want 40", got)
	}
	if got := c.PatternHeight(); got != 25 {
		t.Errorf("PatternHeight = %d, want 25", got)
	}
	pr := c.PatternRect(10, 20)
	if pr.X != 14 || pr.Y != 23 || pr.W != 40 || pr.H != 25 {
		t.Errorf("PatternRect = %v", pr)
	}
	br := c.BoundingRect(10, 20)
	if br.W != 50 || br.H != 30 {
		t.Errorf("BoundingRect = %v", br)
	}
	if got := c.SymmetricHBlank(); got != 5 {
		t.Errorf("SymmetricHBlank = %d, want 5 (ceil((4+6)/2))", got)
	}
	odd := Character{BlankLeft: 3, BlankRight: 4}
	if got := odd.SymmetricHBlank(); got != 4 {
		t.Errorf("SymmetricHBlank = %d, want 4 (ceil(3.5))", got)
	}
}

func TestCharacterValidate(t *testing.T) {
	good := Character{ID: 1, Width: 10, Height: 10, VSBShots: 2, Repeats: []int64{1, 2}}
	if err := good.Validate(2); err != nil {
		t.Errorf("valid character rejected: %v", err)
	}
	cases := []struct {
		name string
		c    Character
		frag string
	}{
		{"zero width", Character{Width: 0, Height: 10, VSBShots: 2, Repeats: []int64{1}}, "non-positive"},
		{"negative blank", Character{Width: 10, Height: 10, BlankLeft: -1, VSBShots: 2, Repeats: []int64{1}}, "negative blank"},
		{"blanks too big", Character{Width: 10, Height: 10, BlankLeft: 6, BlankRight: 6, VSBShots: 2, Repeats: []int64{1}}, "exceed"},
		{"zero shots", Character{Width: 10, Height: 10, VSBShots: 0, Repeats: []int64{1}}, "shot count"},
		{"wrong regions", Character{Width: 10, Height: 10, VSBShots: 2, Repeats: []int64{1, 2}}, "regions"},
		{"negative repeats", Character{Width: 10, Height: 10, VSBShots: 2, Repeats: []int64{-1}}, "negative repeat"},
	}
	for _, c := range cases {
		err := c.c.Validate(1)
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
		}
	}
}

func TestHVOverlap(t *testing.T) {
	a := Character{BlankLeft: 3, BlankRight: 7, BlankTop: 2, BlankBottom: 4}
	b := Character{BlankLeft: 5, BlankRight: 1, BlankTop: 6, BlankBottom: 8}
	if got := HOverlap(a, b); got != 5 {
		t.Errorf("HOverlap = %d, want 5 (min(right=7, left=5))", got)
	}
	if got := HOverlap(b, a); got != 1 {
		t.Errorf("HOverlap reversed = %d, want 1", got)
	}
	if got := VOverlap(a, b); got != 2 {
		t.Errorf("VOverlap = %d, want 2 (min(top=2, bottom=8))", got)
	}
}

func TestInstanceValidate(t *testing.T) {
	in := tinyInstance()
	if err := in.Validate(); err != nil {
		t.Fatalf("valid instance rejected: %v", err)
	}
	if got := in.NumRows(); got != 1 {
		t.Errorf("NumRows = %d, want 1", got)
	}
	if got := in.NumCharacters(); got != 3 {
		t.Errorf("NumCharacters = %d, want 3", got)
	}

	empty := &Instance{NumRegions: 1, StencilWidth: 10, StencilHeight: 10}
	if err := empty.Validate(); err != ErrEmptyInstance {
		t.Errorf("empty instance: got %v, want ErrEmptyInstance", err)
	}

	bad := tinyInstance()
	bad.Characters[1].ID = 7
	if err := bad.Validate(); err == nil {
		t.Error("non-dense IDs should be rejected")
	}

	dup := tinyInstance()
	dup.Characters[2].ID = 1
	if err := dup.Validate(); err == nil {
		t.Error("duplicate IDs should be rejected")
	}

	badHeight := tinyInstance()
	badHeight.Characters[2].Height = 30
	if err := badHeight.Validate(); err == nil {
		t.Error("1D character with mismatched height should be rejected")
	}

	badStencil := tinyInstance()
	badStencil.StencilWidth = 0
	if err := badStencil.Validate(); err == nil {
		t.Error("non-positive stencil should be rejected")
	}
}

// Validate runs several times per served job (at submit, and again in the
// solver entry points), so on a plan1d-shaped instance without row groups
// (600 characters, 10 regions) it allocates nothing.
func TestInstanceValidateAllocatesNothing(t *testing.T) {
	const numChars, numRegions = 600, 10
	in := &Instance{
		Name: "plan1d-shaped", Kind: OneD, StencilWidth: 800, StencilHeight: 800,
		NumRegions: numRegions, RowHeight: 40,
		Characters: make([]Character, numChars),
	}
	for i := range in.Characters {
		reps := make([]int64, numRegions)
		for r := range reps {
			reps[r] = int64((i + r) % 25)
		}
		in.Characters[i] = Character{ID: i, Width: 28 + i%17, Height: 40, BlankLeft: 4 + i%5, BlankRight: 4 + i%7,
			VSBShots: 2 + i%59, Repeats: reps}
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() { _ = in.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times per call, want 0", n)
	}
}

func TestKindString(t *testing.T) {
	if OneD.String() != "1DOSP" || TwoD.String() != "2DOSP" {
		t.Errorf("unexpected Kind strings: %s %s", OneD, TwoD)
	}
	if Kind(9).String() != "Kind(9)" {
		t.Errorf("unexpected fallback: %s", Kind(9))
	}
}
