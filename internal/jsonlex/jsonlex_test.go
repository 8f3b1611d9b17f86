package jsonlex

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// doc exercises every reader: scalars, a nested object, slices of scalars
// and of objects.
type doc struct {
	N    int     `json:"n"`
	S    string  `json:"s"`
	Ints []int64 `json:"ints"`
	Kids []kid   `json:"kids"`
}

type kid struct {
	X    int    `json:"x"`
	Y    []int  `json:"y"`
	Name string `json:"name"`
}

var docFields, kidFields = []string{"n", "s", "ints", "kids"}, []string{"x", "y", "name"}

// readDoc reads the kids' names into one shared builder (StringIn).
func readDoc(r *Reader, d *doc) error {
	var names strings.Builder
	elem := func(r *Reader, k *kid) error { return readKid(r, k, &names) }
	return r.Object(func(key []byte) error {
		switch Field(key, docFields) {
		case "n":
			return Int(r, &d.N)
		case "s":
			return r.String(&d.S)
		case "ints":
			return Slice(r, &d.Ints, Int[int64])
		case "kids":
			return Slice(r, &d.Kids, elem)
		}
		_, err := r.Skip()
		return err
	})
}

func readKid(r *Reader, k *kid, names *strings.Builder) error {
	return r.Object(func(key []byte) error {
		switch Field(key, kidFields) {
		case "x":
			return Int(r, &k.X)
		case "y":
			return Slice(r, &k.Y, Int[int])
		case "name":
			return r.StringIn(&k.Name, names)
		}
		_, err := r.Skip()
		return err
	})
}

// FuzzReader holds the reader to encoding/json on doc: the same error or
// success, the same decoded value, and a Skip that accepts exactly the
// values json.Valid does, up to where the value ends.
func FuzzReader(f *testing.F) {
	deep := func(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }
	for _, s := range []string{
		`{"n":1,"s":"a","ints":[1,2],"kids":[{"x":1,"y":[1]}]}`,
		`{"kids":[{"x":1,"y":[1,2,3]},{"x":2}],"kids":[{"y":[4]}],"kids":[{"y":[5,null]},{}]}`,
		`{"ints":[],"kids":null,"N":-0,"S":"é\ud800","ſ":"long s"}`,
		`{"kids":[{"name":"a"},{"name":"","NAME":"b\u00e9"},{"name":null},{"name":5}],"kids":[{},{"name":"` + strings.Repeat("c", 300) + `"}]}`,
		`{"n":1.0}`, `{"n":1e2}`, `{"n":9223372036854775807}`, `{"n":-9223372036854775809}`,
		`{"ints":[1,],"n":1}`, `{"s":"\x"}`, "{\"s\":\"bad\xff\"}", `{"n":"1"}`, `{"kids":{}}`,
		`{"z":` + deep(MaxDepth-1) + `}`, `{"z":` + deep(MaxDepth) + `}`,
		`null`, `[1]`, `{"n":1} trailing`, ``, `"\b\`, `{"s":"\`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		data = slices.Clip(data) // reading past len(data) must panic
		var want doc
		wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&want)
		var got doc
		r := NewReader(data)
		err := readDoc(r, &got)
		if err == nil {
			err = r.Mismatch()
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("reader error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("reader %+v, encoding/json %+v", got, want)
		}

		r = NewReader(data)
		raw, err := r.Skip()
		var v json.RawMessage
		if wantErr := json.NewDecoder(bytes.NewReader(data)).Decode(&v); (err == nil) != (wantErr == nil) {
			t.Fatalf("Skip error %v, encoding/json error %v", err, wantErr)
		}
		if err == nil && !bytes.Equal(raw, bytes.TrimSpace(v)) {
			t.Fatalf("Skip read %q, encoding/json %q", raw, v)
		}
	})
}
