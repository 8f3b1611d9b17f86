package core

import (
	"slices"
	"strings"
	"sync"

	"eblow/internal/jsonlex"
)

// The JSON field names of Instance, Character and RowGroup, as their struct
// tags spell them.
var (
	instanceFields  = []string{"name", "kind", "stencilWidth", "stencilHeight", "numRegions", "rowHeight", "rowGroups", "characters"}
	characterFields = []string{"id", "name", "width", "height", "blankLeft", "blankRight", "blankTop", "blankBottom", "vsbShots", "repeats"}
	rowGroupFields  = []string{"rows", "regions"}
)

// ReadJSON decodes the JSON value at r into in, exactly as encoding/json
// would decode it into an Instance: keys match the struct tags case-
// insensitively, unknown keys are skipped, a repeated key decodes into
// what the earlier one left, and mistyped values are recorded on r (see
// jsonlex.Reader.Mismatch) while decoding goes on. It does not validate.
//
// It allocates each character array once, and only for elements it
// decodes: Characters is decoded into a reused buffer and copied out at its
// exact length, the Repeats of every character are carved, cap-limited,
// from one shared array that doubles when it runs out, and the character
// names share one string arena. No size is read from bytes it has not
// decoded.
func (in *Instance) ReadJSON(r *jsonlex.Reader) error {
	var d decoder
	return r.Object(func(key []byte) error {
		switch jsonlex.Field(key, instanceFields) {
		case "name":
			// Not in the names arena: job records keep the instance's name
			// after they drop the instance.
			return r.String(&in.Name)
		case "kind":
			return jsonlex.Int(r, &in.Kind)
		case "stencilWidth":
			return jsonlex.Int(r, &in.StencilWidth)
		case "stencilHeight":
			return jsonlex.Int(r, &in.StencilHeight)
		case "numRegions":
			return jsonlex.Int(r, &in.NumRegions)
		case "rowHeight":
			return jsonlex.Int(r, &in.RowHeight)
		case "rowGroups":
			return jsonlex.Slice(r, &in.RowGroups, readRowGroup)
		case "characters":
			return d.characters(r, &in.Characters)
		}
		_, err := r.Skip()
		return err
	})
}

// decoder holds what one ReadJSON call's characters share.
type decoder struct {
	names  strings.Builder
	room   []int64 // the uncarved rest of the shared repeats array
	carved int     // the values carved from it so far
}

// characterBuffers holds *[]Character buffers that characters decodes into,
// each zero up to its capacity between uses. Buffers of more than
// maxPooledCharacters elements are dropped rather than kept.
var characterBuffers sync.Pool

const maxPooledCharacters = 1 << 14

// minRepeatsBlock is the first block of the shared repeats array; each
// later block holds as many values as all blocks before it.
const minRepeatsBlock = 256

// characters reads a characters array into *s. A fresh array (*s has no
// capacity) is decoded into a pooled buffer, grown as jsonlex.Slice grows
// it, and copied out at its length; an array that reuses *s, as a repeated
// key does, is decoded in place.
func (d *decoder) characters(r *jsonlex.Reader, s *[]Character) error {
	if cap(*s) > 0 || r.Peek() != '[' {
		return jsonlex.Slice(r, s, d.character)
	}
	buf, _ := characterBuffers.Get().(*[]Character)
	if buf == nil {
		buf = new([]Character)
	}
	b := (*buf)[:0]
	err := jsonlex.Slice(r, &b, d.character)
	*s = slices.Clone(b) // [] stays a non-nil empty slice
	clear(b)
	if cap(b) > cap(*buf) { // Slice outgrew the buffer
		*buf = b[:0]
	}
	if cap(*buf) <= maxPooledCharacters {
		characterBuffers.Put(buf)
	}
	return err
}

// repeats reads a repeats array into c.Repeats. A fresh array is decoded
// into the uncarved room of the shared array and cut to its length and
// capacity there, so a later, longer array for the same key reallocates
// instead of writing into the next character's values. An array longer
// than the room is moved to its own array by jsonlex.Slice; the room it
// wrote then no longer reads as zero and is dropped.
func (d *decoder) repeats(r *jsonlex.Reader, c *Character) error {
	if cap(c.Repeats) > 0 || r.Peek() != '[' {
		return jsonlex.Slice(r, &c.Repeats, jsonlex.Int[int64])
	}
	if len(d.room) == 0 {
		d.room = make([]int64, max(minRepeatsBlock, d.carved))
	}
	s := d.room[:0]
	err := jsonlex.Slice(r, &s, jsonlex.Int[int64])
	if n := len(s); n > len(d.room) {
		d.room = nil
	} else {
		s = s[:n:n]
		d.room = d.room[n:]
		d.carved += n
	}
	c.Repeats = s
	return err
}

func (d *decoder) character(r *jsonlex.Reader, c *Character) error {
	return r.Object(func(key []byte) error {
		switch jsonlex.Field(key, characterFields) {
		case "id":
			return jsonlex.Int(r, &c.ID)
		case "name":
			return r.StringIn(&c.Name, &d.names)
		case "width":
			return jsonlex.Int(r, &c.Width)
		case "height":
			return jsonlex.Int(r, &c.Height)
		case "blankLeft":
			return jsonlex.Int(r, &c.BlankLeft)
		case "blankRight":
			return jsonlex.Int(r, &c.BlankRight)
		case "blankTop":
			return jsonlex.Int(r, &c.BlankTop)
		case "blankBottom":
			return jsonlex.Int(r, &c.BlankBottom)
		case "vsbShots":
			return jsonlex.Int(r, &c.VSBShots)
		case "repeats":
			return d.repeats(r, c)
		}
		_, err := r.Skip()
		return err
	})
}

func readRowGroup(r *jsonlex.Reader, g *RowGroup) error {
	return r.Object(func(key []byte) error {
		switch jsonlex.Field(key, rowGroupFields) {
		case "rows":
			return jsonlex.Slice(r, &g.Rows, jsonlex.Int[int])
		case "regions":
			return jsonlex.Slice(r, &g.Regions, jsonlex.Int[int])
		}
		_, err := r.Skip()
		return err
	})
}
