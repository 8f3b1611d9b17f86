package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"eblow/internal/geom"
)

// Placement is the position of one selected character on the stencil; X and
// Y locate the lower-left corner of the character bounding box (including
// blanks).
type Placement struct {
	Char int `json:"char"`
	X    int `json:"x"`
	Y    int `json:"y"`
}

// Row describes one stencil row of a 1DOSP solution. Chars lists character
// IDs from left to right; X holds the matching bounding-box left edges.
type Row struct {
	Y     int   `json:"y"`
	Chars []int `json:"chars"`
	X     []int `json:"x"`
}

// Width returns the occupied width of the row: the right edge of the last
// character bounding box (0 for an empty row).
func (r Row) Width(in *Instance) int {
	if len(r.Chars) == 0 {
		return 0
	}
	last := len(r.Chars) - 1
	return r.X[last] + in.Characters[r.Chars[last]].Width
}

// Solution is a stencil plan: a selection of characters plus their physical
// placement. For 1DOSP solutions Rows is populated; Placements always holds
// the flat per-character positions (derived from Rows for 1D solutions).
type Solution struct {
	Algorithm string `json:"algorithm"`

	Selected   []bool      `json:"selected"`
	Rows       []Row       `json:"rows,omitempty"`
	Placements []Placement `json:"placements,omitempty"`

	WritingTime int64         `json:"writingTime"`
	RegionTimes []int64       `json:"regionTimes"`
	Runtime     time.Duration `json:"runtime"`
}

// NumSelected returns the number of characters on the stencil.
func (s *Solution) NumSelected() int {
	n := 0
	for _, b := range s.Selected {
		if b {
			n++
		}
	}
	return n
}

// Finalize recomputes the cached writing-time fields from the selection and
// records the algorithm name and runtime.
func (s *Solution) Finalize(in *Instance, algorithm string, elapsed time.Duration) {
	s.Algorithm = algorithm
	s.Runtime = elapsed
	s.RegionTimes = in.RegionTimes(s.Selected)
	s.WritingTime = MaxInt64(s.RegionTimes)
}

// PlacementsFromRows flattens the 1D row structure into Placements, in a
// slice of exactly the placed length: a finished plan lives as long as its
// job record, so it carries no append slack.
func (s *Solution) PlacementsFromRows() {
	n := 0
	for _, row := range s.Rows {
		n += len(row.Chars)
	}
	s.Placements = make([]Placement, 0, n)
	for _, row := range s.Rows {
		for k, id := range row.Chars {
			s.Placements = append(s.Placements, Placement{Char: id, X: row.X[k], Y: row.Y})
		}
	}
}

// Validate1D checks a 1DOSP solution: every selected character is placed in
// exactly one row, bounding boxes stay inside the stencil, rows fit into the
// stencil height, and adjacent characters overlap only within their shared
// blank margins (pattern areas never overlap).
func (s *Solution) Validate1D(in *Instance) error {
	placed := make(map[int]bool)
	if len(s.Rows) > in.NumRows() {
		return fmt.Errorf("core: %d rows exceed stencil capacity of %d", len(s.Rows), in.NumRows())
	}
	for ri, row := range s.Rows {
		if len(row.Chars) != len(row.X) {
			return fmt.Errorf("core: row %d has %d chars but %d positions", ri, len(row.Chars), len(row.X))
		}
		for k, id := range row.Chars {
			if id < 0 || id >= len(in.Characters) {
				return fmt.Errorf("core: row %d references unknown character %d", ri, id)
			}
			if placed[id] {
				return fmt.Errorf("core: character %d placed more than once", id)
			}
			placed[id] = true
			if !s.Selected[id] {
				return fmt.Errorf("core: character %d placed but not selected", id)
			}
			ch := in.Characters[id]
			x := row.X[k]
			if x < 0 || x+ch.Width > in.StencilWidth {
				return fmt.Errorf("core: character %d at x=%d exceeds stencil width %d", id, x, in.StencilWidth)
			}
			if k > 0 {
				prevID := row.Chars[k-1]
				prev := in.Characters[prevID]
				prevX := row.X[k-1]
				if x < prevX {
					return fmt.Errorf("core: row %d characters not ordered by x", ri)
				}
				// The pattern areas must not overlap: the gap between
				// bounding boxes may shrink by at most the shared blank.
				minX := prevX + prev.Width - HOverlap(prev, ch)
				if x < minX {
					return fmt.Errorf("core: characters %d and %d overlap beyond their blanks (x=%d < %d)",
						prevID, id, x, minX)
				}
			}
		}
	}
	for id, sel := range s.Selected {
		if sel && !placed[id] {
			return fmt.Errorf("core: character %d selected but not placed", id)
		}
	}
	return nil
}

// Validate2D checks a 2DOSP solution: every selected character has exactly
// one placement, bounding boxes stay inside the stencil outline, and no
// character's pattern area intrudes into another character's bounding box.
// Bounding boxes (blank regions) may overlap each other, which is exactly
// the blank sharing the OSP problem exploits; the pattern-versus-box rule is
// the 2D generalisation of the 1D spacing rule x_j >= x_i + w_i - o^h_ij.
func (s *Solution) Validate2D(in *Instance) error {
	placed := make(map[int]Placement)
	for _, p := range s.Placements {
		if p.Char < 0 || p.Char >= len(in.Characters) {
			return fmt.Errorf("core: placement references unknown character %d", p.Char)
		}
		if _, dup := placed[p.Char]; dup {
			return fmt.Errorf("core: character %d placed more than once", p.Char)
		}
		if !s.Selected[p.Char] {
			return fmt.Errorf("core: character %d placed but not selected", p.Char)
		}
		ch := in.Characters[p.Char]
		if p.X < 0 || p.Y < 0 || p.X+ch.Width > in.StencilWidth || p.Y+ch.Height > in.StencilHeight {
			return fmt.Errorf("core: character %d at (%d,%d) exceeds stencil outline", p.Char, p.X, p.Y)
		}
		placed[p.Char] = p
	}
	for id, sel := range s.Selected {
		if sel {
			if _, ok := placed[id]; !ok {
				return fmt.Errorf("core: character %d selected but not placed", id)
			}
		}
	}
	// Sweep by bounding-box x to avoid the full quadratic pair check on
	// sparse stencils; only pairs whose bounding boxes overlap need the
	// pattern-versus-box test.
	type pb struct {
		id      int
		box     geom.Rect
		pattern geom.Rect
	}
	// Placements in a strict (x, id) order, so an invalid plan always
	// reports the same pair.
	rects := make([]pb, 0, len(s.Placements))
	for _, p := range s.Placements {
		ch := in.Characters[p.Char]
		rects = append(rects, pb{id: p.Char, box: ch.BoundingRect(p.X, p.Y), pattern: ch.PatternRect(p.X, p.Y)})
	}
	slices.SortFunc(rects, func(a, b pb) int { return cmp.Or(cmp.Compare(a.box.X, b.box.X), cmp.Compare(a.id, b.id)) })
	for i := range rects {
		for j := i + 1; j < len(rects); j++ {
			a, b := rects[i], rects[j]
			if b.box.X >= a.box.Right() {
				break // sorted by box x: no later box can overlap a horizontally
			}
			if !a.box.Overlaps(b.box) {
				continue
			}
			if a.pattern.Overlaps(b.box) || b.pattern.Overlaps(a.box) {
				return fmt.Errorf("core: characters %d and %d overlap beyond their blanks", a.id, b.id)
			}
		}
	}
	return nil
}

// Validate dispatches to Validate1D or Validate2D based on the instance kind.
func (s *Solution) Validate(in *Instance) error {
	if len(s.Selected) != len(in.Characters) {
		return fmt.Errorf("core: selection vector has %d entries for %d characters", len(s.Selected), len(in.Characters))
	}
	if in.Kind == OneD {
		return s.Validate1D(in)
	}
	return s.Validate2D(in)
}

// MinRowLength returns the minimum packed length of the given characters on
// a single row when placed in the given order, sharing blanks between
// neighbours.
func MinRowLength(in *Instance, order []int) int {
	if len(order) == 0 {
		return 0
	}
	// Characters are read through pointers: this runs in the 1D planner's
	// inner loops, where copying a Character per read dominated.
	prev := &in.Characters[order[0]]
	total := prev.Width
	for _, id := range order[1:] {
		cur := &in.Characters[id]
		total += cur.Width - min(prev.BlankRight, cur.BlankLeft) // HOverlap(prev, cur)
		prev = cur
	}
	return total
}

// SymmetricRowLength evaluates the closed form of Lemma 1: under the
// symmetric-blank assumption the minimum packing length of a character set
// is n*M - sum(s_i) + max(s_i) where M is the (common) width; the general
// form used here is sum(w_i - s_i) + max(s_i), which reduces to the lemma
// when all widths are equal.
func SymmetricRowLength(widths, blanks []int) int {
	if len(widths) == 0 {
		return 0
	}
	total := 0
	maxBlank := 0
	for i, w := range widths {
		total += w - blanks[i]
		if blanks[i] > maxBlank {
			maxBlank = blanks[i]
		}
	}
	return total + maxBlank
}
