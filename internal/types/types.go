// Package types implements Nova's static type system (§3 of the paper).
//
// The system is stratified into two layers: ordinary types (words,
// bools, records, tuples, arrows, exceptions) and layouts. Layouts give
// rise to the type pair packed(l) / unpacked(l): packed(l) is a synonym
// for the word tuple word[l.Words()], and unpacked(l) is a synonym for
// a record that mirrors l's structure with every bitfield spread into
// its own word-typed component.
//
// The typing rules guarantee that no memory allocation (stack or heap)
// is needed to implement control: recursion — self or mutual — is only
// legal in tail position, and an exception can only be raised where its
// try-handle block is still in scope.
package types

import (
	"fmt"
	"strings"

	"repro/internal/layout"
)

// Type is a semantic Nova type.
type Type interface {
	String() string
	typ()
}

// Word is the 32-bit machine word.
type Word struct{}

// Bool is the boolean type; after CPS conversion it is represented as
// control flow, never as a register value.
type Bool struct{}

// Tuple is a sequence of values; the empty tuple is unit.
type Tuple struct{ Elems []Type }

// Field is one component of a Record.
type Field struct {
	Name string
	Type Type
}

// Record is a finite collection of labeled values.
type Record struct{ Fields []Field }

// Arrow is a function type. Named lists parameter names for
// record-style functions (g[x = ..]).
type Arrow struct {
	Params []Field
	Named  bool
	Result Type
}

// Exn is an exception type; raising requires arguments matching Params.
type Exn struct {
	Params []Field
	Named  bool
}

// Packed is packed(l): a synonym for word[l.Words()].
type Packed struct{ L *layout.Layout }

// Unpacked is unpacked(l): a synonym for the record mirroring l.
type Unpacked struct{ L *layout.Layout }

func (Word) typ()     {}
func (Bool) typ()     {}
func (Tuple) typ()    {}
func (Record) typ()   {}
func (Arrow) typ()    {}
func (Exn) typ()      {}
func (Packed) typ()   {}
func (Unpacked) typ() {}

// Unit is the empty tuple.
var Unit = Tuple{}

func (Word) String() string { return "word" }
func (Bool) String() string { return "bool" }

func (t Tuple) String() string {
	parts := make([]string, len(t.Elems))
	for i, e := range t.Elems {
		parts[i] = e.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

func fieldsString(fs []Field) string {
	parts := make([]string, len(fs))
	for i, f := range fs {
		parts[i] = f.Name + ": " + f.Type.String()
	}
	return strings.Join(parts, ", ")
}

func (t Record) String() string { return "[" + fieldsString(t.Fields) + "]" }

func (t Arrow) String() string {
	if t.Named {
		return "[" + fieldsString(t.Params) + "] -> " + t.Result.String()
	}
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.Type.String()
	}
	return "(" + strings.Join(parts, ", ") + ") -> " + t.Result.String()
}

func (t Exn) String() string {
	if t.Named {
		return "exn[" + fieldsString(t.Params) + "]"
	}
	parts := make([]string, len(t.Params))
	for i, p := range t.Params {
		parts[i] = p.Type.String()
	}
	return "exn(" + strings.Join(parts, ", ") + ")"
}

func (t Packed) String() string   { return fmt.Sprintf("packed<%d bits>", t.L.Bits) }
func (t Unpacked) String() string { return fmt.Sprintf("unpacked<%d bits>", t.L.Bits) }

// WordTuple returns the type word[n].
func WordTuple(n int) Tuple {
	elems := make([]Type, n)
	for i := range elems {
		elems[i] = Word{}
	}
	return Tuple{Elems: elems}
}

// Expand normalizes the packed/unpacked synonyms one level:
// packed(l) becomes word[l.Words()] and unpacked(l) becomes the record
// mirroring l. Other types are returned unchanged.
func Expand(t Type) Type {
	switch t := t.(type) {
	case Packed:
		if t.L.Words() == 1 {
			return Word{} // a one-word packed value is a plain word
		}
		return WordTuple(t.L.Words())
	case Unpacked:
		return UnpackedRecord(t.L)
	}
	return t
}

// UnpackedRecord builds the record type corresponding to unpacked(l):
// the structure follows l's definition with all bitfields spread out,
// each into its own word component; every alternative of every overlay
// is present (§3.2).
func UnpackedRecord(l *layout.Layout) Record {
	var fields []Field
	for _, f := range l.Fields {
		if f.Name == "" {
			continue // gaps have no unpacked counterpart
		}
		fields = append(fields, Field{Name: f.Name, Type: unpackedField(f)})
	}
	return Record{Fields: fields}
}

func unpackedField(f layout.Field) Type {
	switch {
	case len(f.Overlay) > 0:
		var alts []Field
		for _, a := range f.Overlay {
			if a.Sub != nil {
				alts = append(alts, Field{Name: a.Name, Type: UnpackedRecord(a.Sub)})
			} else {
				alts = append(alts, Field{Name: a.Name, Type: Word{}})
			}
		}
		return Record{Fields: alts}
	case f.Sub != nil:
		return UnpackedRecord(f.Sub)
	default:
		return Word{}
	}
}

// Equal reports structural type equality modulo the packed/unpacked
// synonyms.
func Equal(a, b Type) bool {
	a, b = Expand(a), Expand(b)
	switch a := a.(type) {
	case Word:
		_, ok := b.(Word)
		return ok
	case Bool:
		_, ok := b.(Bool)
		return ok
	case Tuple:
		bt, ok := b.(Tuple)
		if !ok || len(a.Elems) != len(bt.Elems) {
			return false
		}
		for i := range a.Elems {
			if !Equal(a.Elems[i], bt.Elems[i]) {
				return false
			}
		}
		return true
	case Record:
		bt, ok := b.(Record)
		if !ok || len(a.Fields) != len(bt.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != bt.Fields[i].Name || !Equal(a.Fields[i].Type, bt.Fields[i].Type) {
				return false
			}
		}
		return true
	case Arrow:
		bt, ok := b.(Arrow)
		if !ok || a.Named != bt.Named || len(a.Params) != len(bt.Params) || !Equal(a.Result, bt.Result) {
			return false
		}
		for i := range a.Params {
			if a.Named && a.Params[i].Name != bt.Params[i].Name {
				return false
			}
			if !Equal(a.Params[i].Type, bt.Params[i].Type) {
				return false
			}
		}
		return true
	case Exn:
		bt, ok := b.(Exn)
		if !ok || a.Named != bt.Named || len(a.Params) != len(bt.Params) {
			return false
		}
		for i := range a.Params {
			if a.Named && a.Params[i].Name != bt.Params[i].Name {
				return false
			}
			if !Equal(a.Params[i].Type, bt.Params[i].Type) {
				return false
			}
		}
		return true
	}
	return false
}

// WordCount returns how many machine words a first-class value of type
// t occupies when flattened (bools count as one word when stored as
// data; functions and exceptions occupy no words — they are
// compile-time entities after de-proceduralization).
func WordCount(t Type) int {
	switch t := Expand(t).(type) {
	case Word, Bool:
		return 1
	case Tuple:
		n := 0
		for _, e := range t.Elems {
			n += WordCount(e)
		}
		return n
	case Record:
		n := 0
		for _, f := range t.Fields {
			n += WordCount(f.Type)
		}
		return n
	}
	return 0
}

// Leaf is one word-sized component of a flattened value.
type Leaf struct {
	Path string // dotted selector path from the root value; "" for the root
	Type Type   // Word or Bool
}

// Flatten spreads a value type into its word-sized leaves, mirroring
// the compiler's record flattening (§3.1): only leaf fields have a
// runtime counterpart.
func Flatten(t Type) []Leaf {
	var out []Leaf
	flattenInto(Expand(t), "", &out)
	return out
}

func flattenInto(t Type, path string, out *[]Leaf) {
	switch t := Expand(t).(type) {
	case Word, Bool:
		*out = append(*out, Leaf{Path: path, Type: t})
	case Tuple:
		for i, e := range t.Elems {
			flattenInto(e, joinPath(path, fmt.Sprintf("%d", i)), out)
		}
	case Record:
		for _, f := range t.Fields {
			flattenInto(f.Type, joinPath(path, f.Name), out)
		}
	}
	// Arrows and exns have no runtime words.
}

func joinPath(prefix, name string) string {
	if prefix == "" {
		return name
	}
	return prefix + "." + name
}
