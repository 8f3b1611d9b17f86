package core

import "eblow/internal/jsonlex"

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
func (in *Instance) ReadJSON(r *jsonlex.Reader) error {
	return r.Object(func(key []byte) error {
		switch jsonlex.Field(key, instanceFields) {
		case "name":
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
			return jsonlex.Slice(r, &in.Characters, readCharacter)
		}
		_, err := r.Skip()
		return err
	})
}

func readCharacter(r *jsonlex.Reader, c *Character) error {
	return r.Object(func(key []byte) error {
		switch jsonlex.Field(key, characterFields) {
		case "id":
			return jsonlex.Int(r, &c.ID)
		case "name":
			return r.String(&c.Name)
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
			return jsonlex.Slice(r, &c.Repeats, jsonlex.Int[int64])
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
