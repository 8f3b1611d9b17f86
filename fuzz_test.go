package eblow

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refInstance is Instance without methods: encoding/json decodes it by
// reflection alone, whatever decoding methods Instance may grow.
type refInstance Instance

// decodeInstanceRef is the reflective decoder DecodeInstance replaced, kept
// as its oracle: one encoding/json value from data, then validation.
func decodeInstanceRef(data []byte) (*Instance, error) {
	var in Instance
	if err := json.NewDecoder(bytes.NewReader(data)).Decode((*refInstance)(&in)); err != nil {
		return nil, err
	}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &in, nil
}

// instanceSeeds are the encoding/json corner cases the hand-written
// instance decoder must reproduce. Each wraps a small valid 1D instance.
func instanceSeeds(tb testing.TB) []string {
	tb.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, mustEncode(tb, SmallInstance(OneD, 3, 2, 1))); err != nil {
		tb.Fatal(err)
	}
	c := buf.String()
	head := c[:len(c)-1] // the instance object without its closing brace
	ch := `{"id":0,"width":30,"height":40,"blankLeft":2,"blankRight":3,"blankTop":0,"blankBottom":0,"vsbShots":5,"repeats":[1,2]}`
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	// chr is a valid character of the instance, with its repeats given.
	chr := func(id int, repeats string) string {
		return fmt.Sprintf(`{"id":%d,"width":30,"height":40,"blankLeft":2,"blankRight":3,"vsbShots":5,%s}`, id, repeats)
	}
	two := `"repeats":[1,2]`
	long := strings.Trim(strings.Repeat("3,", 300), ",")
	return []string{
		c,
		// Repeated keys: later arrays decode into the earlier elements.
		head + `,"characters":[{"name":"x"}]}`,
		head + `,"characters":[{"name":"x"}],"characters":[{"id":0},{"id":1},{"id":2,"repeats":[null,7]}]}`,
		head + `,"characters":[` + ch + `,{"id":1},{"id":2}],"characters":[{"repeats":[4]}],"characters":[{"repeats":[4,null]},{"repeats":[5,null]}]}`,
		// The characters array decoded through a reused buffer and copied
		// out at its length: a repeated key whose array is shorter, then
		// longer than the first, where the elements past the first array's
		// end must decode from zero; a null element, which keeps what the
		// earlier array left; empty arrays, which leave the buffer unused;
		// and '{' in names and unknown keys, which must not size it.
		head + `,"characters":[` + chr(0, two) + `],"characters":[{"id":0},{"id":1},{"id":2},` + chr(3, two) + `]}`,
		head + `,"characters":[` + chr(0, two) + `,` + chr(1, two) + `,` + chr(2, two) + `],"characters":[{"name":"{"}],"characters":[{},{"name":"{{"},null,` + chr(3, two) + `,` + chr(4, two) + `]}`,
		head + `,"characters":[` + chr(0, two) + `,null,` + chr(2, two) + `]}`,
		head + `,"characters":[],"characters":[` + chr(0, two) + `]}`,
		head + `,"characters":[]}`,
		head + `,"characters":[` + chr(0, `"name":"{{{{}","repeats":[3,4]`) + `,` + chr(1, two) + `],"vendor":{"a":[{},{"b":{}}]}}`,
		// Each character's repeats carved from one shared array: a repeated
		// key that is longer the second time, null then an array, and
		// arrays of other lengths than the first character's.
		head + `,"characters":[` + chr(0, `"repeats":[7],"repeats":[8,9]`) + `,` + chr(1, `"repeats":[1,2],"repeats":[3],"repeats":[4,5]`) + `]}`,
		head + `,"characters":[` + chr(0, `"repeats":null,"repeats":[3,4]`) + `,` + chr(1, `"repeats":[],"repeats":[5,6]`) + `]}`,
		head + `,"characters":[` + chr(0, `"repeats":[5],"repeats":[5,6]`) + `,` + chr(1, two) + `,` + chr(2, two) + `,` + chr(3, two) + `]}`,
		head + `,"characters":[` + chr(0, `"repeats":[],"repeats":[0,1]`) + `,` + chr(1, two) + `,` + chr(2, `"repeats":[1,2,3]`) + `]}`,
		// A repeats array longer than the shared array's first block, which
		// moves to its own array, then characters carved from a new block.
		head + `,"characters":[` + chr(0, two) + `,` + chr(1, `"repeats":[`+long+`]`) + `,` + chr(2, `"repeats":[5],"repeats":[6,7]`) + `,` + chr(3, two) + `]}`,
		head + `,"rowGroups":[{"rows":[0,1]}],"rowGroups":[{"regions":[1]}]}`,
		head + `,"rowGroups":[{"rows":[0]},{"rows":[1],"regions":[0]}],"rowGroups":[{"rows":[2]}],"rowGroups":[{},{"regions":null}]}`,
		// [] versus null.
		head + `,"rowGroups":[]}`,
		head + `,"rowGroups":null}`,
		head + `,"characters":null}`,
		head + `,"characters":[{"repeats":[]}]}`,
		head + `,"rowGroups":[{"rows":[0],"regions":[]}]}`,
		// Numbers that are not int64 values.
		head + `,"numRegions":2.0}`,
		head + `,"numRegions":1e2}`,
		head + `,"kind":-0}`,
		head + `,"characters":[{"repeats":[9223372036854775807,0]}]}`,
		head + `,"characters":[{"repeats":[9223372036854775808,0]}]}`,
		head + `,"characters":[{"repeats":[-9223372036854775808,0]}]}`,
		head + `,"characters":[{"repeats":[-9223372036854775809,0]}]}`,
		// Escaped and case-folded keys: the long s, the Kelvin sign.
		head + `,"n\u0061me":"escaped","\u212aind":1}`,
		head + `,"ſtencilWidth":900}`,
		head + `,"Kind":0}`,
		head + `,"KIND":1,"Name":"upper"}`,
		// Invalid UTF-8 and escapes in names.
		head + ",\"name\":\"bad\xffutf8\"}",
		head + ",\"name\":\"caf\xc3\xa9 \\ud800 \\\"q\\\"\"}",
		// Nesting at and past encoding/json's bound, under an unknown key.
		head + `,"vendor":` + deep(9999) + `}`,
		head + `,"vendor":` + deep(10000) + `}`,
		// Mistyped values, and syntax errors after them.
		head + `,"name":5}`,
		head + `,"characters":{"id":0}}`,
		head + `,"vendor":[1,]}`,
		head + `,"vendor":tru}`,
		head + `} trailing bytes`,
		`{"kind":2,"characters":null}`,
		`null`,
		`not json at all`,
	}
}

func mustEncode(tb testing.TB, in *Instance) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzDecodeInstance holds the facade's instance decoder — which torn
// files and hostile uploads reach through the HTTP submit path and WAL
// replay — to its reflective oracle: it never panics, it accepts exactly
// the inputs decodeInstanceRef accepts, with a deeply equal instance, and
// anything it accepts survives an encode/decode round trip.
func FuzzDecodeInstance(f *testing.F) {
	for _, s := range instanceSeeds(f) {
		f.Add([]byte(s))
	}
	f.Add(mustEncode(f, SmallInstance(OneD, 4, 2, 1)))
	f.Add(mustEncode(f, SmallInstance(TwoD, 4, 2, 1)))
	// 600 repeats values: several blocks of the shared repeats array, and
	// arrays that overflow a block's end.
	f.Add(mustEncode(f, SmallInstance(OneD, 60, 10, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := decodeInstanceRef(data)
		in, err := DecodeInstance(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("DecodeInstance error %v, reflective decoder error %v", err, wantErr)
		}
		if err != nil {
			if in != nil {
				t.Fatalf("DecodeInstance returned both an instance and an error: %v", err)
			}
			return
		}
		if !reflect.DeepEqual(in, want) {
			t.Fatalf("DecodeInstance %+v, reflective decoder %+v", in, want)
		}
		again, err := DecodeInstance(bytes.NewReader(mustEncode(t, in)))
		if err != nil {
			t.Fatalf("round trip of an accepted instance failed: %v", err)
		}
		if again.Kind != in.Kind || len(again.Characters) != len(in.Characters) ||
			again.NumRegions != in.NumRegions {
			t.Fatalf("round trip changed the instance: %+v -> %+v", in, again)
		}
	})
}
