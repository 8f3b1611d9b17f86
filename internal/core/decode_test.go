package core

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"eblow/internal/jsonlex"
)

// ReadJSON decodes as encoding/json does whether or not the instance is
// valid, across the reused characters buffer and the shared repeats
// array's block ends. Every repeats array opens with null, which leaves its
// first value as the array held it: zero, unless the shared array hands out
// room that an earlier array wrote.
func TestReadJSONMatchesEncodingJSON(t *testing.T) {
	chr := func(id int, repeats string) string {
		return fmt.Sprintf(`{"id":%d,"name":"c%d","width":30,"vsbShots":5,"repeats":%s}`, id, id, repeats)
	}
	chars := func(n, values int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(chr(i, "[null"+strings.Repeat(",7", values-1)+"]"))
		}
		return b.String()
	}
	for _, doc := range []string{
		// 60 arrays of 10: blocks of the shared array fill, and the arrays
		// that overflow a block's end move to their own.
		`{"characters":[` + chars(60, 10) + `]}`,
		// An array longer than a whole block, then arrays of a new block.
		`{"characters":[` + chars(2, 2) + `,` + chr(2, "[null"+strings.Repeat(",3", 299)+"]") + `,` + chars(3, 4) + `]}`,
		// Repeated keys reuse what the earlier arrays left, past the
		// shorter array's length too.
		`{"characters":[` + chars(3, 4) + `],"characters":[{"repeats":[1]},{"repeats":[null,null,null,null,9]}],"characters":[{"repeats":[null,null]},{},{},` + chr(3, "[null,1]") + `]}`,
		`{"characters":[` + chr(0, "[1,2]") + `],"characters":[{"repeats":null},{"repeats":[]}],"characters":[{"repeats":[null,4]},{"repeats":[null,5]}]}`,
		`{"characters":[],"characters":[` + chars(2, 3) + `]}`,
		`{"characters":[{},null,{"repeats":[]}],"characters":null,"characters":[` + chars(1, 2) + `]}`,
	} {
		var got, want Instance
		r := jsonlex.NewReader([]byte(doc))
		if err := got.ReadJSON(r); err != nil {
			t.Fatalf("%.60s…: %v", doc, err)
		}
		if err := r.Mismatch(); err != nil {
			t.Fatalf("%.60s…: %v", doc, err)
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%.60s…: ReadJSON decodes\n%+v\nencoding/json\n%+v", doc, got.Characters, want.Characters)
		}
	}
}
