package core

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestSolutionFinalizeAndCounts(t *testing.T) {
	in := tinyInstance()
	s := &Solution{Selected: []bool{true, false, true}}
	s.Finalize(in, "test", 3*time.Millisecond)
	if s.Algorithm != "test" || s.Runtime != 3*time.Millisecond {
		t.Error("Finalize did not record metadata")
	}
	if s.WritingTime != in.WritingTime(s.Selected) {
		t.Errorf("WritingTime = %d, want %d", s.WritingTime, in.WritingTime(s.Selected))
	}
	if s.NumSelected() != 2 {
		t.Errorf("NumSelected = %d, want 2", s.NumSelected())
	}
}

func TestValidate1DAcceptsLegalPacking(t *testing.T) {
	in := tinyInstance()
	// Characters 0 and 1: widths 40/40, overlap min(5,8)=5, so the pair packs
	// into 75 <= 100.
	s := &Solution{
		Selected: []bool{true, true, false},
		Rows: []Row{
			{Y: 0, Chars: []int{0, 1}, X: []int{0, 35}},
		},
	}
	if err := s.Validate(in); err != nil {
		t.Fatalf("legal packing rejected: %v", err)
	}
	s.PlacementsFromRows()
	if len(s.Placements) != 2 {
		t.Fatalf("PlacementsFromRows produced %d placements", len(s.Placements))
	}
	if s.Rows[0].Width(in) != 75 {
		t.Errorf("Row width = %d, want 75", s.Rows[0].Width(in))
	}
}

// PlacementsFromRows lists every row's characters in row order, each at its
// row's Y, in a slice with no spare capacity: a finished plan is kept for
// its job record's lifetime. A solution that already holds placements gets
// a fresh, exactly sized slice too.
func TestPlacementsFromRowsExactSize(t *testing.T) {
	s := &Solution{
		Rows: []Row{
			{Y: 0, Chars: []int{4, 0, 2}, X: []int{0, 30, 61}},
			{Y: 40, Chars: []int{1}, X: []int{7}},
			{Y: 80},
			{Y: 120, Chars: []int{3, 5}, X: []int{0, 33}},
		},
		Placements: make([]Placement, 9, 16),
	}
	want := []Placement{
		{Char: 4, X: 0, Y: 0}, {Char: 0, X: 30, Y: 0}, {Char: 2, X: 61, Y: 0},
		{Char: 1, X: 7, Y: 40},
		{Char: 3, X: 0, Y: 120}, {Char: 5, X: 33, Y: 120},
	}
	for pass := 0; pass < 2; pass++ {
		s.PlacementsFromRows()
		if !slices.Equal(s.Placements, want) {
			t.Fatalf("pass %d: placements %v, want %v", pass, s.Placements, want)
		}
		if len(s.Placements) != cap(s.Placements) {
			t.Errorf("pass %d: %d placements with capacity %d, want no slack", pass, len(s.Placements), cap(s.Placements))
		}
	}
}

func TestValidate1DRejections(t *testing.T) {
	in := tinyInstance()
	cases := []struct {
		name string
		sol  Solution
		frag string
	}{
		{
			"selection length mismatch",
			Solution{Selected: []bool{true}},
			"selection vector",
		},
		{
			"short selection with placements",
			Solution{Selected: []bool{true}, Rows: []Row{{Chars: []int{0, 1}, X: []int{0, 40}}}},
			"selection vector",
		},
		{
			"long selection",
			Solution{Selected: []bool{true, false, false, true}, Rows: []Row{{Chars: []int{0}, X: []int{0}}}},
			"selection vector",
		},
		{
			"too many rows",
			Solution{Selected: []bool{false, false, false}, Rows: []Row{{}, {}}},
			"rows exceed",
		},
		{
			"overlap beyond blanks",
			Solution{Selected: []bool{true, true, false}, Rows: []Row{{Chars: []int{0, 1}, X: []int{0, 30}}}},
			"overlap beyond",
		},
		{
			"outside stencil",
			Solution{Selected: []bool{true, false, false}, Rows: []Row{{Chars: []int{0}, X: []int{70}}}},
			"exceeds stencil width",
		},
		{
			"placed but not selected",
			Solution{Selected: []bool{false, false, false}, Rows: []Row{{Chars: []int{0}, X: []int{0}}}},
			"not selected",
		},
		{
			"selected but not placed",
			Solution{Selected: []bool{true, false, false}, Rows: []Row{{Chars: []int{}, X: []int{}}}},
			"not placed",
		},
		{
			"duplicate placement",
			Solution{Selected: []bool{true, false, false}, Rows: []Row{{Chars: []int{0, 0}, X: []int{0, 40}}}},
			"more than once",
		},
		{
			"unsorted row",
			Solution{Selected: []bool{true, true, false}, Rows: []Row{{Chars: []int{0, 1}, X: []int{50, 0}}}},
			"not ordered",
		},
	}
	for _, c := range cases {
		for _, validate := range []func(*Instance) error{c.sol.Validate, c.sol.Validate1D} {
			err := validate(in)
			if err == nil {
				t.Errorf("%s: expected error", c.name)
				continue
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
			}
		}
	}
}

func twoDInstance() *Instance {
	return &Instance{
		Name:          "tiny2d",
		Kind:          TwoD,
		StencilWidth:  100,
		StencilHeight: 100,
		NumRegions:    1,
		Characters: []Character{
			{ID: 0, Width: 40, Height: 40, BlankLeft: 5, BlankRight: 5, BlankTop: 5, BlankBottom: 5, VSBShots: 10, Repeats: []int64{3}},
			{ID: 1, Width: 40, Height: 40, BlankLeft: 10, BlankRight: 10, BlankTop: 10, BlankBottom: 10, VSBShots: 5, Repeats: []int64{2}},
			{ID: 2, Width: 30, Height: 30, BlankLeft: 2, BlankRight: 2, BlankTop: 2, BlankBottom: 2, VSBShots: 8, Repeats: []int64{4}},
		},
	}
}

func TestValidate2DAcceptsBlankSharing(t *testing.T) {
	in := twoDInstance()
	// Characters 0 and 1 share blanks: bounding boxes overlap by
	// min(right blank of 0, left blank of 1) = 5 in x, and the gap between
	// the pattern areas equals max(5, 10) = 10, so neither pattern intrudes
	// into the other character's box.
	s := &Solution{
		Selected: []bool{true, true, false},
		Placements: []Placement{
			{Char: 0, X: 0, Y: 0},
			{Char: 1, X: 35, Y: 0},
		},
	}
	if err := s.Validate(in); err != nil {
		t.Fatalf("legal 2D placement rejected: %v", err)
	}
}

func TestValidate2DRejectsPatternIntoBlank(t *testing.T) {
	in := twoDInstance()
	// Bounding boxes overlap by 10 in x: pattern areas stay disjoint but
	// character 0's pattern (right edge at x=35) intrudes into character 1's
	// box (left edge at x=30), which the blank-clearance rule forbids.
	s := &Solution{
		Selected: []bool{true, true, false},
		Placements: []Placement{
			{Char: 0, X: 0, Y: 0},
			{Char: 1, X: 30, Y: 0},
		},
	}
	if err := s.Validate(in); err == nil {
		t.Fatal("pattern intruding into a neighbour's blank must be rejected")
	}
}

func TestValidate2DRejections(t *testing.T) {
	in := twoDInstance()
	cases := []struct {
		name string
		sol  Solution
		frag string
	}{
		{
			"pattern overlap",
			Solution{Selected: []bool{true, true, false}, Placements: []Placement{{Char: 0, X: 0, Y: 0}, {Char: 1, X: 10, Y: 0}}},
			"overlap",
		},
		{
			"outside outline",
			Solution{Selected: []bool{true, false, false}, Placements: []Placement{{Char: 0, X: 70, Y: 0}}},
			"outline",
		},
		{
			"negative position",
			Solution{Selected: []bool{true, false, false}, Placements: []Placement{{Char: 0, X: -1, Y: 0}}},
			"outline",
		},
		{
			"unknown character",
			Solution{Selected: []bool{false, false, false}, Placements: []Placement{{Char: 9, X: 0, Y: 0}}},
			"unknown",
		},
		{
			"selected but missing",
			Solution{Selected: []bool{false, false, true}, Placements: nil},
			"not placed",
		},
		{
			"duplicate",
			Solution{Selected: []bool{true, false, false}, Placements: []Placement{{Char: 0}, {Char: 0, X: 50}}},
			"more than once",
		},
		{
			"short selection",
			Solution{Selected: []bool{true}, Placements: []Placement{{Char: 0}, {Char: 1, X: 50}}},
			"selection vector",
		},
		{
			"long selection",
			Solution{Selected: []bool{true, false, false, true}, Placements: []Placement{{Char: 0}}},
			"selection vector",
		},
	}
	for _, c := range cases {
		for _, validate := range []func(*Instance) error{c.sol.Validate, c.sol.Validate2D} {
			err := validate(in)
			if err == nil {
				t.Errorf("%s: expected error", c.name)
				continue
			}
			if !strings.Contains(err.Error(), c.frag) {
				t.Errorf("%s: error %q does not contain %q", c.name, err, c.frag)
			}
		}
	}
}

// When several pairs overlap, Validate2D names the first pair in (x, id)
// order, the same one on every call: three characters placed at one x,
// listed out of id order.
func TestValidate2DReportsOnePair(t *testing.T) {
	in := twoDInstance()
	s := &Solution{
		Selected:   []bool{true, true, true},
		Placements: []Placement{{Char: 2, X: 0, Y: 0}, {Char: 1, X: 0, Y: 0}, {Char: 0, X: 0, Y: 0}},
	}
	const want = "core: characters 0 and 1 overlap beyond their blanks"
	for i := 0; i < 50; i++ {
		if err := s.Validate(in); err == nil || err.Error() != want {
			t.Fatalf("call %d: Validate = %v, want %q", i, err, want)
		}
	}
}

func TestMinRowLength(t *testing.T) {
	in := tinyInstance()
	if got := MinRowLength(in, nil); got != 0 {
		t.Errorf("empty order length = %d", got)
	}
	if got := MinRowLength(in, []int{0}); got != 40 {
		t.Errorf("single char length = %d, want 40", got)
	}
	// 0 then 1: 40 + 40 - min(5,8) = 75.
	if got := MinRowLength(in, []int{0, 1}); got != 75 {
		t.Errorf("pair length = %d, want 75", got)
	}
	// 1 then 0: 40 + 40 - min(8,5) = 75 (symmetric blanks here).
	if got := MinRowLength(in, []int{1, 0}); got != 75 {
		t.Errorf("reversed pair length = %d, want 75", got)
	}
	// All three, order 1,0,2: 40 + (40-5) + (40-2) = 113.
	if got := MinRowLength(in, []int{1, 0, 2}); got != 113 {
		t.Errorf("triple length = %d, want 113", got)
	}
}

// TestSymmetricRowLengthLemma1 checks the closed form of Lemma 1 against a
// direct simulation of the greedy packing for equal-width symmetric-blank
// characters.
func TestSymmetricRowLengthLemma1(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		const M = 100
		widths := make([]int, n)
		blanks := make([]int, n)
		for i := range widths {
			widths[i] = M
			blanks[i] = rng.Intn(M / 2) // blanks < M/2 so left+right <= M
		}
		// Closed form: n*M - sum(s) + max(s).
		sum, maxB := 0, 0
		for _, s := range blanks {
			sum += s
			if s > maxB {
				maxB = s
			}
		}
		want := n*M - sum + maxB
		if got := SymmetricRowLength(widths, blanks); got != want {
			return false
		}
		// Direct simulation: sort decreasing by blank, insert left or right;
		// every consecutive pair shares min(s_i, s_j) = the smaller blank, so
		// sorted-adjacent packing achieves the bound.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return blanks[idx[a]] > blanks[idx[b]] })
		total := widths[idx[0]]
		for k := 1; k < n; k++ {
			share := min(blanks[idx[k-1]], blanks[idx[k]])
			total += widths[idx[k]] - share
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: with symmetric blanks, MinRowLength is invariant under reversing
// the order (every adjacent pair then shares min(s_i, s_j) either way).
func TestMinRowLengthReversalSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		in := &Instance{
			Kind: OneD, StencilWidth: 1000, StencilHeight: 40,
			NumRegions: 1, RowHeight: 40,
		}
		for i := 0; i < n; i++ {
			s := rng.Intn(10)
			in.Characters = append(in.Characters, Character{
				ID: i, Width: 30 + rng.Intn(20), Height: 40,
				BlankLeft: s, BlankRight: s,
				VSBShots: 2, Repeats: []int64{1},
			})
		}
		order := rng.Perm(n)
		rev := make([]int, n)
		for i, v := range order {
			rev[n-1-i] = v
		}
		return MinRowLength(in, order) == MinRowLength(in, rev)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: MinRowLength never exceeds the plain sum of widths and never
// drops below the sum of pattern widths.
func TestMinRowLengthBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, 2+rng.Intn(6), 1)
		order := rng.Perm(len(in.Characters))
		got := MinRowLength(in, order)
		sumW, sumP := 0, 0
		for _, id := range order {
			sumW += in.Characters[id].Width
			sumP += in.Characters[id].PatternWidth()
		}
		return got <= sumW && got >= sumP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
