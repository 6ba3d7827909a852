package cfront

import (
	"reflect"
	"testing"

	"github.com/pip-analysis/pip/internal/testsrc"
)

// TestSameTypeMatchesSpelling checks the structural sameType against the
// comparison it replaced, equality of the types' spellings, over every
// pair of C types in the programs the cfront tests and the examples
// parse, their decayed forms, pointers to them, and hand-built edge
// cases.
func TestSameTypeMatchesSpelling(t *testing.T) {
	var types []CType
	seen := map[CType]bool{}
	add := func(ct CType) {
		if ct != nil && !seen[ct] {
			seen[ct] = true
			types = append(types, ct)
		}
	}
	parsed := 0
	srcs := append(testsrc.Literals(t, "*_test.go", "../../examples/*/main.go"), benchSource(4<<10))
	for _, src := range srcs {
		f, err := ParseC(src)
		if err != nil {
			continue
		}
		parsed++
		collectCTypes(reflect.ValueOf(f), add, map[visit]bool{})
	}
	if parsed < 50 {
		t.Fatalf("only %d C sources parsed; the literal scan lost the test sources", parsed)
	}
	for _, ct := range types {
		add(decay(ct))
		add(&Ptr{Elem: ct})
	}
	defA := &StructDef{Name: "s", Fields: []Field{{"a", cInt}}}
	defB := &StructDef{Name: "s", Fields: []Field{{"b", &Ptr{Elem: cChar}}}}
	for _, ct := range []CType{
		&StructRef{Name: "s", Def: defA},
		&StructRef{Name: "s", Def: defB},
		&StructRef{Name: "s"},
		&Prim{Kind: CDouble + 1},
		&Prim{Kind: CDouble + 2},
		&Arr{Elem: cInt, Len: 3},
		&Arr{Elem: &Arr{Elem: cInt, Len: 3}, Len: 4},
		&Arr{Elem: &Arr{Elem: cInt, Len: 4}, Len: 3},
		&FuncCT{Ret: cInt, Params: []CType{cInt}},
		&FuncCT{Ret: cInt, Params: []CType{cInt}, Variadic: true},
		&FuncCT{Ret: cInt, Params: []CType{cInt, cInt}},
		&FuncCT{Ret: &FuncCT{Ret: cInt}, Params: []CType{cChar}},
		&Ptr{Elem: &FuncCT{Ret: cVoid, Params: []CType{&Ptr{Elem: cVoid}}}},
	} {
		add(ct)
	}
	for _, a := range types {
		for _, b := range types {
			if got, want := sameType(a, b), a.String() == b.String(); got != want {
				t.Errorf("sameType(%s, %s) = %v, spellings equal %v", a, b, got, want)
			}
		}
	}
	t.Logf("%d types from %d sources", len(types), parsed)
}

type visit struct {
	t reflect.Type
	p uintptr
}

// collectCTypes passes add every CType reachable from v through exported
// fields, pointers, interfaces, slices and maps.
func collectCTypes(v reflect.Value, add func(CType), seen map[visit]bool) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			collectCTypes(v.Elem(), add, seen)
		}
	case reflect.Pointer:
		key := visit{v.Type(), v.Pointer()}
		if v.IsNil() || seen[key] {
			return
		}
		seen[key] = true
		if ct, ok := v.Interface().(CType); ok {
			add(ct)
		}
		collectCTypes(v.Elem(), add, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				collectCTypes(v.Field(i), add, seen)
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			collectCTypes(v.Index(i), add, seen)
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			collectCTypes(it.Value(), add, seen)
		}
	}
}
