package model

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMPS feeds arbitrary bytes to the MPS parser. Two properties
// are enforced: malformed input produces a positioned error ("mps:<line>")
// rather than a panic, and any input the parser accepts — fixed or free
// layout — re-exports and re-imports to a model with an identical
// canonical content hash: the fuzz form of the round-trip identity gate.
func FuzzReadMPS(f *testing.F) {
	// A well-formed file exercising every section.
	f.Add([]byte(`NAME T
ROWS
 N OBJ
 L C1
 G C2
 E C3
 N FREE
COLUMNS
 M1 'MARKER' 'INTORG'
 X1 OBJ 2.5 C1 1
 X1 C3 1
 M2 'MARKER' 'INTEND'
 X2 C1 3 C2 1
 X2 FREE 1
RHS
 RHS C1 10 C2 1
 RHS C3 2
RANGES
 RNG C1 4
BOUNDS
 UP BND X1 5
 MI BND X2
 UP BND X2 7
ENDATA
`))
	// Malformed seeds: duplicate rows, missing RHS rows, truncation.
	f.Add([]byte("ROWS\n N OBJ\n L C1\n L C1\nENDATA\n"))
	f.Add([]byte("ROWS\n N OBJ\nCOLUMNS\n X1 C9 1\nENDATA\n"))
	f.Add([]byte("ROWS\n N OBJ\n L C1\nCOLUMNS\n X1 C1 1\nRHS\n RHS C9 1\nENDATA\n"))
	f.Add([]byte("ROWS\n N OBJ\nCOLUMNS\n X1 OBJ 1e999\nENDATA\n"))
	f.Add([]byte("OBJSENSE\n MAX\nROWS\n N OBJ\nENDATA\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadMPS(bytes.NewReader(data))
		if err != nil {
			if !strings.Contains(err.Error(), "mps") {
				t.Fatalf("error without mps position: %v", err)
			}
			return
		}
		c1 := m.Canonicalize()
		var buf bytes.Buffer
		if err := m.WriteMPS(&buf); err != nil {
			// The only legal refusal on an imported model is a ranged
			// row whose far bound has no exact RHS±RANGE encoding.
			if !strings.Contains(err.Error(), "not exactly representable") {
				t.Fatalf("re-export refused an imported model: %v", err)
			}
			return
		}
		m2, err := ReadMPS(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("re-import of our own export failed: %v\nfile:\n%s", err, buf.String())
		}
		c2 := m2.Canonicalize()
		if c1.Exact != c2.Exact {
			t.Fatalf("round trip changed the hash: %s -> %s\ninput:\n%q\nexport:\n%s",
				c1.Exact, c2.Exact, data, buf.String())
		}
	})
}
