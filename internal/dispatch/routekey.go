package dispatch

import (
	"fmt"

	"eblow/internal/core"
)

// routingKey buckets an instance into the coarse shape key the ring routes
// on: kind, region count, character count, mean VSB shots and stencil
// pressure, a handful of values each. Jobs of one shape co-locate on one
// node, and the key is written to the dispatcher WAL (walRecord.RoutingKey)
// so a restarted dispatcher re-routes its table exactly as before; the
// bytes are therefore frozen (routekey_test.go pins them).
func routingKey(in *core.Instance) string {
	return fmt.Sprintf("%s/regions=%s/chars=%s/vsb=%s/blank=%s",
		in.Kind, bucketRegions(in.NumRegions), bucketChars(in.NumCharacters()),
		bucketVSB(in), bucketBlank(in))
}

// bucketRegions separates single-CP instances, narrow MCC and wide MCC.
func bucketRegions(n int) string {
	switch {
	case n <= 1:
		return "1"
	case n <= 4:
		return "2-4"
	case n <= 16:
		return "5-16"
	default:
		return ">16"
	}
}

// bucketChars straddles the paper's benchmark sizes (tiny Table-5 cases,
// 1000, 4000).
func bucketChars(n int) string {
	switch {
	case n <= 50:
		return "tiny"
	case n <= 400:
		return "small"
	case n <= 1500:
		return "medium"
	default:
		return "large"
	}
}

// bucketVSB buckets the mean VSB shot count per candidate.
func bucketVSB(in *core.Instance) string {
	var total int64
	for _, c := range in.Characters {
		total += int64(c.VSBShots)
	}
	mean := float64(total) / float64(len(in.Characters))
	switch {
	case mean < 10:
		return "low"
	case mean < 30:
		return "medium"
	default:
		return "high"
	}
}

// bucketBlank buckets the stencil pressure: summed candidate footprint (row
// width for 1D, bounding-box area for 2D) over the stencil capacity.
func bucketBlank(in *core.Instance) string {
	var demand, capacity float64
	if in.Kind == core.OneD {
		for _, c := range in.Characters {
			demand += float64(c.Width - c.SymmetricHBlank())
		}
		capacity = float64(in.NumRows()) * float64(in.StencilWidth)
	} else {
		for _, c := range in.Characters {
			demand += float64(c.Width) * float64(c.Height)
		}
		capacity = float64(in.StencilWidth) * float64(in.StencilHeight)
	}
	if capacity <= 0 {
		return "over"
	}
	switch ratio := demand / capacity; {
	case ratio <= 0.8:
		return "loose"
	case ratio <= 2:
		return "tight"
	default:
		return "over"
	}
}
