// Package core defines the data model for the overlapping-aware stencil
// planning (OSP) problem in multi-column-cell (MCC) e-beam lithography
// systems, together with the writing-time objective of the E-BLOW paper
// (Yu, Yuan, Gao, Pan; DAC 2013).
//
// The central objects are Character (a candidate pattern that may be put on
// the stencil), Instance (a set of candidates plus the stencil outline and
// per-region repeat counts) and Solution (a selection plus a physical
// placement). The package also evaluates the MCC writing-time objective
//
//	T_total = max_c ( T_VSB_c - sum_i R_ic * a_i )
//
// and validates that placements respect the stencil outline and only share
// blank space between adjacent characters.
package core

import (
	"errors"
	"fmt"

	"eblow/internal/geom"
)

// Character is a character candidate. Width and Height describe the full
// bounding box on the stencil including the surrounding blank margins; the
// enclosed circuit pattern occupies the box shrunk by the four blanks.
// VSBShots is the number of variable-shaped-beam shots needed to print one
// occurrence of the pattern without character projection (n_i in the paper).
// Repeats[c] is the number of occurrences of the pattern in wafer region c
// (t_ic in the paper).
type Character struct {
	ID   int    `json:"id"`
	Name string `json:"name,omitempty"`

	Width  int `json:"width"`
	Height int `json:"height"`

	BlankLeft   int `json:"blankLeft"`
	BlankRight  int `json:"blankRight"`
	BlankTop    int `json:"blankTop"`
	BlankBottom int `json:"blankBottom"`

	VSBShots int     `json:"vsbShots"`
	Repeats  []int64 `json:"repeats"`
}

// PatternWidth returns the width of the enclosed circuit pattern
// (bounding box minus horizontal blanks).
func (c Character) PatternWidth() int { return c.Width - c.BlankLeft - c.BlankRight }

// PatternHeight returns the height of the enclosed circuit pattern
// (bounding box minus vertical blanks).
func (c Character) PatternHeight() int { return c.Height - c.BlankTop - c.BlankBottom }

// PatternRect returns the pattern rectangle assuming the character bounding
// box is placed with its lower-left corner at (x, y).
func (c Character) PatternRect(x, y int) geom.Rect {
	return geom.Rect{
		X: x + c.BlankLeft,
		Y: y + c.BlankBottom,
		W: c.PatternWidth(),
		H: c.PatternHeight(),
	}
}

// BoundingRect returns the full bounding box (pattern plus blanks) when the
// character is placed at (x, y).
func (c Character) BoundingRect(x, y int) geom.Rect {
	return geom.Rect{X: x, Y: y, W: c.Width, H: c.Height}
}

// SymmetricHBlank returns ceil((blankLeft+blankRight)/2), the symmetric-blank
// approximation s_i used by the simplified 1D formulation of E-BLOW.
func (c Character) SymmetricHBlank() int {
	return (c.BlankLeft + c.BlankRight + 1) / 2
}

// TotalRepeats returns the total number of occurrences across all regions.
func (c Character) TotalRepeats() int64 {
	var t int64
	for _, r := range c.Repeats {
		t += r
	}
	return t
}

// Validate performs basic sanity checks on the candidate geometry.
func (c Character) Validate(numRegions int) error {
	switch {
	case c.Width <= 0 || c.Height <= 0:
		return fmt.Errorf("character %d: non-positive size %dx%d", c.ID, c.Width, c.Height)
	case c.BlankLeft < 0 || c.BlankRight < 0 || c.BlankTop < 0 || c.BlankBottom < 0:
		return fmt.Errorf("character %d: negative blank", c.ID)
	case c.PatternWidth() < 0 || c.PatternHeight() < 0:
		return fmt.Errorf("character %d: blanks exceed bounding box", c.ID)
	case c.VSBShots < 1:
		return fmt.Errorf("character %d: VSB shot count %d < 1", c.ID, c.VSBShots)
	case len(c.Repeats) != numRegions:
		return fmt.Errorf("character %d: %d repeat counts for %d regions", c.ID, len(c.Repeats), numRegions)
	}
	for r, t := range c.Repeats {
		if t < 0 {
			return fmt.Errorf("character %d: negative repeat count in region %d", c.ID, r)
		}
	}
	return nil
}

// HOverlap returns the horizontal blank overlap o^h when character a is
// placed immediately to the left of character b: the adjacent blanks may be
// shared, so the packing saves min(a.BlankRight, b.BlankLeft).
func HOverlap(a, b Character) int {
	return min(a.BlankRight, b.BlankLeft)
}

// VOverlap returns the vertical blank overlap o^v when character a is placed
// immediately below character b.
func VOverlap(a, b Character) int {
	return min(a.BlankTop, b.BlankBottom)
}

// Kind distinguishes the two OSP flavours studied in the paper.
type Kind int

const (
	// OneD is 1DOSP: all characters share a common height (standard cells)
	// and are packed into stencil rows; only horizontal blanks overlap.
	OneD Kind = iota
	// TwoD is 2DOSP: blanks are non-uniform in both directions and the
	// placement is a fixed-outline packing problem.
	TwoD
)

func (k Kind) String() string {
	switch k {
	case OneD:
		return "1DOSP"
	case TwoD:
		return "2DOSP"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// MaxRowGroups bounds Instance.RowGroups so the 1D planner can keep each
// character's band candidacy in one uint64 bitmask. Validate enforces it
// together with the band's row and region ranges; the planner checks none
// of them again.
const MaxRowGroups = 64

// RowGroup pins a band of stencil rows to a set of wafer regions — the
// stencil band of one MCC column cell. A character is a candidate for the
// band's rows only if it repeats in at least one of the band's regions; the
// 1D planner exploits the banding to decompose its LP relaxation into
// independent blocks solved in parallel.
type RowGroup struct {
	// Rows lists the stencil row indices of the band.
	Rows []int `json:"rows"`
	// Regions lists the wafer regions whose characters may use the band's
	// rows. An empty list leaves the rows open to every character.
	Regions []int `json:"regions,omitempty"`
}

// Instance is a complete OSP problem instance.
type Instance struct {
	Name string `json:"name"`
	Kind Kind   `json:"kind"`

	// StencilWidth and StencilHeight bound the placement region.
	StencilWidth  int `json:"stencilWidth"`
	StencilHeight int `json:"stencilHeight"`

	// NumRegions is the number of wafer regions / character projections P.
	NumRegions int `json:"numRegions"`

	// RowHeight is the common character bounding-box height for 1DOSP
	// instances (including vertical blanks). Unused for 2DOSP.
	RowHeight int `json:"rowHeight,omitempty"`

	// RowGroups optionally bands the stencil rows per column cell (1DOSP
	// only) and is the one place to set bands: the 1D planner treats a
	// banded instance in per-column-cell-band mode. Nil keeps the paper's
	// shared-stencil semantics.
	RowGroups []RowGroup `json:"rowGroups,omitempty"`

	Characters []Character `json:"characters"`
}

// ErrEmptyInstance is returned when an instance has no characters or regions.
var ErrEmptyInstance = errors.New("core: instance has no characters or no regions")

// Validate checks the instance for structural consistency.
func (in *Instance) Validate() error {
	if in.Kind != OneD && in.Kind != TwoD {
		return fmt.Errorf("core: unknown instance kind %v", in.Kind)
	}
	if len(in.Characters) == 0 || in.NumRegions <= 0 {
		return ErrEmptyInstance
	}
	if in.StencilWidth <= 0 || in.StencilHeight <= 0 {
		return fmt.Errorf("core: non-positive stencil %dx%d", in.StencilWidth, in.StencilHeight)
	}
	for i, c := range in.Characters {
		// Dense IDs also rule out duplicates.
		if c.ID != i {
			return fmt.Errorf("core: character at index %d has ID %d (IDs must be dense 0..n-1)", i, c.ID)
		}
		if err := c.Validate(in.NumRegions); err != nil {
			return err
		}
		if in.Kind == OneD {
			if in.RowHeight <= 0 {
				return errors.New("core: 1DOSP instance requires positive RowHeight")
			}
			if c.Height != in.RowHeight {
				return fmt.Errorf("core: 1DOSP character %d height %d != row height %d", c.ID, c.Height, in.RowHeight)
			}
		}
	}
	// Last: the row-index checks need RowHeight, validated above.
	return in.validateRowGroups()
}

// validateRowGroups checks the optional column-cell banding: 1DOSP only,
// row and region indices in range, and no row owned by two bands.
func (in *Instance) validateRowGroups() error {
	if len(in.RowGroups) == 0 {
		return nil
	}
	if in.Kind != OneD {
		return errors.New("core: row groups apply to 1DOSP instances only")
	}
	if len(in.RowGroups) > MaxRowGroups {
		return fmt.Errorf("core: %d row groups exceed the maximum of %d", len(in.RowGroups), MaxRowGroups)
	}
	owner := make(map[int]int)
	for g, grp := range in.RowGroups {
		for _, r := range grp.Regions {
			if r < 0 || r >= in.NumRegions {
				return fmt.Errorf("core: row group %d references region %d of %d", g, r, in.NumRegions)
			}
		}
		for _, j := range grp.Rows {
			if j < 0 || j >= in.NumRows() {
				return fmt.Errorf("core: row group %d references row %d of %d", g, j, in.NumRows())
			}
			if have, ok := owner[j]; ok {
				return fmt.Errorf("core: row %d belongs to row groups %d and %d", j, have, g)
			}
			owner[j] = g
		}
	}
	return nil
}

// NumRows returns the number of stencil rows available to a 1DOSP instance.
func (in *Instance) NumRows() int {
	if in.RowHeight <= 0 {
		return 0
	}
	return in.StencilHeight / in.RowHeight
}

// NumCharacters returns the number of character candidates.
func (in *Instance) NumCharacters() int { return len(in.Characters) }
