package model

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/lp"
)

// This file is the MPS bridge (DESIGN.md §14): WriteMPS exports the
// model's ILP in the industry interchange format so an external solver
// (CPLEX in the paper) can cross-check this repository's answers, and
// ReadMPS imports an MPS file back into a Model. The export is
// canonical — rows and columns are emitted in model.Canonicalize
// order under synthetic names derived from canonical positions, and
// every number is written in Go's shortest round-trip decimal form —
// so export→import reproduces the model bit-exactly: all three Canon
// content hashes are identical, which is what TestMPSBridgeNAT and
// the round-trip tests enforce.

// mpsObjRow is the objective row name the writer emits.
const mpsObjRow = "OBJ"

// fixedStarts are the classic 0-based field start offsets.
var fixedStarts = [6]int{1, 4, 14, 24, 39, 49}

// mpsFloat renders v in the shortest decimal form that parses back to
// exactly the same float64 bits.
func mpsFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeMPSLine writes one data line: up to six fields, empty fields
// skipped, padded to the classic fixed-format offsets. A field that
// overruns its slot — a value whose shortest round-trip decimal is
// longer than the 12-character value field, say — is written in full
// and pushes the rest right by at least one space: the common
// relaxation, accepted by modern readers.
func writeMPSLine(bw *bufio.Writer, fields ...string) {
	col := 0
	for i, f := range fields {
		if f == "" {
			continue
		}
		pad := fixedStarts[i] - col
		if pad < 1 {
			pad = 1
		}
		for k := 0; k < pad; k++ {
			bw.WriteByte(' ')
		}
		bw.WriteString(f)
		col += pad + len(f)
	}
	bw.WriteByte('\n')
}

// WriteMPS writes the model's ILP in fixed MPS format. Naming is
// canonical: column at canonical position j is X<j>, constraint row at
// canonical position r is R<r> (both zero-padded to 7 digits), and
// sections list entries in canonical order, so two models with equal
// Canon.Exact hashes produce byte-identical MPS files. Rows with two
// finite, unequal bounds use RHS+RANGES; free rows are emitted as
// extra N rows. Columns with no nonzeros are kept alive with an
// explicit zero-objective declaration entry. NaN anywhere, an infinite
// objective or matrix coefficient, or an empty bound interval is an
// error.
func (m *Model) WriteMPS(w io.Writer) error {
	p := m.lp
	n, mr := p.NumCols(), p.NumRows()
	canon := m.Canonicalize()

	colName := make([]string, n) // by original index
	for pos, j := range canon.ColOrder {
		colName[j] = fmt.Sprintf("X%07d", pos)
	}
	rowName := make([]string, mr)
	rowPos := make([]int, mr)
	for pos, r := range canon.RowOrder {
		rowName[r] = fmt.Sprintf("R%07d", pos)
		rowPos[r] = pos
	}

	// Classify rows. kind: 'E', 'L', 'G', or 'N' (free).
	kind := make([]byte, mr)
	rhs := make([]float64, mr)
	rng := make([]float64, mr) // hi-lo for doubly-bounded 'L' rows, else 0
	for r := 0; r < mr; r++ {
		lo, hi := p.RowBounds(r)
		if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
			return fmt.Errorf("mps: row %d has empty or NaN range [%g, %g]", r, lo, hi)
		}
		loInf, hiInf := math.IsInf(lo, -1), math.IsInf(hi, 1)
		switch {
		case lo == hi:
			kind[r], rhs[r] = 'E', lo
		case loInf && hiInf:
			kind[r] = 'N'
		case loInf:
			kind[r], rhs[r] = 'L', hi
		case hiInf:
			kind[r], rhs[r] = 'G', lo
		default:
			// Ranged row: the reader reconstructs the far bound from
			// rhs±range, so pick whichever encoding round-trips the
			// floats exactly.
			rg := hi - lo
			switch {
			case hi-rg == lo:
				kind[r], rhs[r], rng[r] = 'L', hi, rg
			case lo+rg == hi:
				kind[r], rhs[r], rng[r] = 'G', lo, rg
			default:
				return fmt.Errorf("mps: row %d range [%g, %g] is not exactly representable", r, lo, hi)
			}
		}
	}

	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "* generated by the Taming-the-IXP reproduction (canonical order)")
	fmt.Fprintln(bw, "NAME          NOVA")

	fmt.Fprintln(bw, "ROWS")
	writeMPSLine(bw, "N", mpsObjRow)
	for _, r := range canon.RowOrder {
		writeMPSLine(bw, string(kind[r]), rowName[r])
	}

	fmt.Fprintln(bw, "COLUMNS")
	integer := false
	marker := 0
	for _, j := range canon.ColOrder {
		if m.integer[j] != integer {
			which := "'INTEND'"
			if m.integer[j] {
				which = "'INTORG'"
			}
			writeMPSLine(bw, "", fmt.Sprintf("M%07d", marker), "'MARKER'", which)
			marker++
			integer = m.integer[j]
		}
		entries := 0
		if c := p.Obj(j); c != 0 {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return fmt.Errorf("mps: column %s has non-finite objective %g", colName[j], c)
			}
			writeMPSLine(bw, "", colName[j], mpsObjRow, mpsFloat(c))
			entries++
		}
		nzs := append([]lp.Nz(nil), p.Col(j)...)
		sort.Slice(nzs, func(a, b int) bool { return rowPos[nzs[a].Row] < rowPos[nzs[b].Row] })
		for _, nz := range nzs {
			if math.IsNaN(nz.Val) || math.IsInf(nz.Val, 0) {
				return fmt.Errorf("mps: column %s has non-finite coefficient %g", colName[j], nz.Val)
			}
			writeMPSLine(bw, "", colName[j], rowName[nz.Row], mpsFloat(nz.Val))
			entries++
		}
		if entries == 0 {
			// Declaration-only entry: a zero value registers the column
			// without storing a coefficient (ReadMPS mirrors this).
			writeMPSLine(bw, "", colName[j], mpsObjRow, "0")
		}
	}
	if integer {
		writeMPSLine(bw, "", fmt.Sprintf("M%07d", marker), "'MARKER'", "'INTEND'")
	}

	fmt.Fprintln(bw, "RHS")
	for _, r := range canon.RowOrder {
		if kind[r] != 'N' && rhs[r] != 0 {
			writeMPSLine(bw, "", "RHS", rowName[r], mpsFloat(rhs[r]))
		}
	}

	hasRanges := false
	for r := 0; r < mr; r++ {
		if rng[r] != 0 {
			hasRanges = true
			break
		}
	}
	if hasRanges {
		fmt.Fprintln(bw, "RANGES")
		for _, r := range canon.RowOrder {
			if rng[r] != 0 {
				writeMPSLine(bw, "", "RNG", rowName[r], mpsFloat(rng[r]))
			}
		}
	}

	fmt.Fprintln(bw, "BOUNDS")
	for _, j := range canon.ColOrder {
		lo, hi := p.Bounds(j)
		if math.IsNaN(lo) || math.IsNaN(hi) || lo > hi {
			return fmt.Errorf("mps: column %s has empty or NaN bounds [%g, %g]", colName[j], lo, hi)
		}
		name := colName[j]
		loInf, hiInf := math.IsInf(lo, -1), math.IsInf(hi, 1)
		switch {
		case lo == hi:
			writeMPSLine(bw, "FX", "BND", name, mpsFloat(lo))
		case loInf && hiInf:
			writeMPSLine(bw, "FR", "BND", name)
		default:
			if loInf {
				writeMPSLine(bw, "MI", "BND", name)
			} else if lo != 0 {
				writeMPSLine(bw, "LO", "BND", name, mpsFloat(lo))
			}
			if hiInf {
				// Integer columns default to an ambiguous upper bound in
				// some readers; say "plus infinity" explicitly.
				if m.integer[j] {
					writeMPSLine(bw, "PL", "BND", name)
				}
			} else {
				writeMPSLine(bw, "UP", "BND", name, mpsFloat(hi))
			}
		}
	}
	fmt.Fprintln(bw, "ENDATA")
	return bw.Flush()
}

// mpsCol accumulates one column while reading.
type mpsCol struct {
	name    string
	obj     float64
	integer bool
	rows    []int
	vals    []float64
}

// mpsReader is the ReadMPS parse state.
type mpsReader struct {
	objRow   string
	rowKind  map[string]byte // L, G, E, or N for extra free rows
	rowIdx   map[string]int  // constraint rows only, in declaration order
	rowOrder []string
	rhs      map[string]float64
	rng      map[string]float64

	cols     map[string]*mpsCol
	colOrder []string
	seen     map[[2]string]bool // (col, row) pairs already stored

	// bounds state, keyed by column name
	bndLo, bndHi map[string]float64
}

func (st *mpsReader) column(name string, intorg bool) *mpsCol {
	c, ok := st.cols[name]
	if !ok {
		c = &mpsCol{name: name, integer: intorg}
		st.cols[name] = c
		st.colOrder = append(st.colOrder, name)
	}
	return c
}

// mpsValue parses a finite float64.
func mpsValue(s string, ln int) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("mps:%d: bad number %q", ln, s)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("mps:%d: non-finite value %q", ln, s)
	}
	return v, nil
}

// pairs splits an RHS/RANGES data line into (row, value) pairs,
// stripping the optional leading set name.
func pairs(fields []string, ln int) ([]string, error) {
	if len(fields)%2 == 1 {
		fields = fields[1:]
	}
	if len(fields) == 0 || len(fields) > 4 {
		return nil, fmt.Errorf("mps:%d: malformed entry", ln)
	}
	return fields, nil
}

// ReadMPS parses an MPS file (fixed or free format — fields are
// whitespace-delimited either way) into a fresh Model. Errors carry
// the 1-based line number ("mps:17: ..."). The grammar enforced is
// exactly what WriteMPS emits plus the common variations: optional
// set names, multiple pairs per RHS/RANGES line, N rows after the
// first (free constraints), and the full classic BOUNDS vocabulary
// (UP, LO, FX, FR, MI, PL, BV, UI, LI). Duplicate row declarations,
// duplicate (column, row) coefficients, duplicate RHS/RANGES entries,
// references to undeclared rows or columns, non-finite values, and a
// MAX objective sense are errors; malformed input never panics.
func ReadMPS(r io.Reader) (*Model, error) {
	st := &mpsReader{
		rowKind: map[string]byte{}, rowIdx: map[string]int{},
		rhs: map[string]float64{}, rng: map[string]float64{},
		cols: map[string]*mpsCol{}, seen: map[[2]string]bool{},
		bndLo: map[string]float64{}, bndHi: map[string]float64{},
	}
	section := ""
	intorg := false
	ended := false
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	ln := 0
	for sc.Scan() {
		ln++
		line := sc.Text()
		if line == "" || line[0] == '*' {
			continue
		}
		if strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if line[0] != ' ' && line[0] != '\t' {
			// Section header.
			section = strings.ToUpper(fields[0])
			switch section {
			case "NAME":
				continue
			case "OBJSENSE":
				if len(fields) > 1 {
					if err := checkObjSense(fields[1], ln); err != nil {
						return nil, err
					}
					section = ""
				}
				continue
			case "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS":
				continue
			case "ENDATA":
				ended = true
				section = ""
				continue
			default:
				return nil, fmt.Errorf("mps:%d: unknown section %q", ln, fields[0])
			}
		}
		if ended {
			return nil, fmt.Errorf("mps:%d: data after ENDATA", ln)
		}
		switch section {
		case "OBJSENSE":
			if err := checkObjSense(fields[0], ln); err != nil {
				return nil, err
			}
		case "ROWS":
			if len(fields) != 2 {
				return nil, fmt.Errorf("mps:%d: ROWS entry needs a type and a name", ln)
			}
			kind := strings.ToUpper(fields[0])
			name := fields[1]
			if len(kind) != 1 || !strings.ContainsAny(kind, "NLGE") {
				return nil, fmt.Errorf("mps:%d: unknown row type %q", ln, fields[0])
			}
			if _, dup := st.rowKind[name]; dup || name == st.objRow {
				return nil, fmt.Errorf("mps:%d: duplicate row %q", ln, name)
			}
			if kind == "N" && st.objRow == "" {
				st.objRow = name
				continue
			}
			st.rowKind[name] = kind[0]
			st.rowIdx[name] = len(st.rowOrder)
			st.rowOrder = append(st.rowOrder, name)
		case "COLUMNS":
			if hasMarker(fields) {
				switch {
				case fieldContains(fields, "'INTORG'"):
					intorg = true
				case fieldContains(fields, "'INTEND'"):
					intorg = false
				default:
					return nil, fmt.Errorf("mps:%d: marker is neither INTORG nor INTEND", ln)
				}
				continue
			}
			if len(fields) != 3 && len(fields) != 5 {
				return nil, fmt.Errorf("mps:%d: COLUMNS entry needs (column, row, value) groups", ln)
			}
			col := st.column(fields[0], intorg)
			for i := 1; i+1 < len(fields); i += 2 {
				rowN := fields[i]
				v, err := mpsValue(fields[i+1], ln)
				if err != nil {
					return nil, err
				}
				k := [2]string{col.name, rowN}
				if st.seen[k] {
					return nil, fmt.Errorf("mps:%d: duplicate coefficient for column %q row %q", ln, col.name, rowN)
				}
				st.seen[k] = true
				if rowN == st.objRow && st.objRow != "" {
					col.obj = v
					continue
				}
				idx, ok := st.rowIdx[rowN]
				if !ok {
					return nil, fmt.Errorf("mps:%d: unknown row %q", ln, rowN)
				}
				if v != 0 {
					col.rows = append(col.rows, idx)
					col.vals = append(col.vals, v)
				}
			}
		case "RHS":
			ps, err := pairs(fields, ln)
			if err != nil {
				return nil, err
			}
			for i := 0; i+1 < len(ps); i += 2 {
				name := ps[i]
				v, err := mpsValue(ps[i+1], ln)
				if err != nil {
					return nil, err
				}
				if name == st.objRow {
					return nil, fmt.Errorf("mps:%d: RHS on the objective row (objective constants unsupported)", ln)
				}
				if _, ok := st.rowKind[name]; !ok {
					return nil, fmt.Errorf("mps:%d: unknown row %q", ln, name)
				}
				if _, dup := st.rhs[name]; dup {
					return nil, fmt.Errorf("mps:%d: duplicate RHS for row %q", ln, name)
				}
				st.rhs[name] = v
			}
		case "RANGES":
			ps, err := pairs(fields, ln)
			if err != nil {
				return nil, err
			}
			for i := 0; i+1 < len(ps); i += 2 {
				name := ps[i]
				v, err := mpsValue(ps[i+1], ln)
				if err != nil {
					return nil, err
				}
				kind, ok := st.rowKind[name]
				if !ok {
					return nil, fmt.Errorf("mps:%d: unknown row %q", ln, name)
				}
				if kind == 'N' {
					return nil, fmt.Errorf("mps:%d: RANGES on free row %q", ln, name)
				}
				if _, dup := st.rng[name]; dup {
					return nil, fmt.Errorf("mps:%d: duplicate range for row %q", ln, name)
				}
				st.rng[name] = v
			}
		case "BOUNDS":
			if err := st.applyBound(fields, ln); err != nil {
				return nil, err
			}
		case "":
			return nil, fmt.Errorf("mps:%d: data before any section", ln)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("mps: read: %w", err)
	}
	if !ended {
		return nil, fmt.Errorf("mps:%d: missing ENDATA", ln+1)
	}
	if st.objRow == "" {
		return nil, fmt.Errorf("mps: no objective (N) row declared")
	}
	return st.build()
}

func checkObjSense(s string, ln int) error {
	switch strings.ToUpper(s) {
	case "MIN", "MINIMIZE":
		return nil
	case "MAX", "MAXIMIZE":
		return fmt.Errorf("mps:%d: maximization is unsupported (models here minimize)", ln)
	default:
		return fmt.Errorf("mps:%d: unknown objective sense %q", ln, s)
	}
}

func hasMarker(fields []string) bool { return fieldContains(fields, "'MARKER'") }

func fieldContains(fields []string, want string) bool {
	for _, f := range fields {
		if f == want {
			return true
		}
	}
	return false
}

// applyBound handles one BOUNDS line. Valued types take four fields
// (type, set, column, value) or three without a set name; unvalued
// types take three (type, set, column) or two.
func (st *mpsReader) applyBound(fields []string, ln int) error {
	if len(fields) < 2 {
		return fmt.Errorf("mps:%d: malformed BOUNDS entry", ln)
	}
	typ := strings.ToUpper(fields[0])
	valued := false
	switch typ {
	case "UP", "LO", "FX", "UI", "LI":
		valued = true
	case "FR", "MI", "PL", "BV":
	default:
		return fmt.Errorf("mps:%d: unknown bound type %q", ln, fields[0])
	}
	var colN string
	var val float64
	if valued {
		var valS string
		switch len(fields) {
		case 4:
			colN, valS = fields[2], fields[3]
		case 3:
			colN, valS = fields[1], fields[2]
		default:
			return fmt.Errorf("mps:%d: %s bound needs a column and a value", ln, typ)
		}
		var err error
		if val, err = mpsValue(valS, ln); err != nil {
			return err
		}
	} else {
		switch len(fields) {
		case 3:
			colN = fields[2]
		case 2:
			colN = fields[1]
		default:
			return fmt.Errorf("mps:%d: %s bound needs a column", ln, typ)
		}
	}
	col, ok := st.cols[colN]
	if !ok {
		return fmt.Errorf("mps:%d: bound on undeclared column %q", ln, colN)
	}
	lo, loSet := st.bndLo[colN]
	hi, hiSet := st.bndHi[colN]
	if !loSet {
		lo = 0
	}
	if !hiSet {
		hi = math.Inf(1)
	}
	switch typ {
	case "UP":
		hi = val
	case "LO":
		lo = val
	case "FX":
		lo, hi = val, val
	case "FR":
		lo, hi = math.Inf(-1), math.Inf(1)
	case "MI":
		lo = math.Inf(-1)
	case "PL":
		hi = math.Inf(1)
	case "BV":
		col.integer = true
		lo, hi = 0, 1
	case "UI":
		col.integer = true
		hi = val
	case "LI":
		col.integer = true
		lo = val
	}
	st.bndLo[colN], st.bndHi[colN] = lo, hi
	return nil
}

// build assembles the parsed sections into a Model.
func (st *mpsReader) build() (*Model, error) {
	p := lp.NewProblem()
	m := &Model{lp: p}
	for _, name := range st.colOrder {
		c := st.cols[name]
		lo, hi := 0.0, math.Inf(1)
		if v, ok := st.bndLo[name]; ok {
			lo = v
		}
		if v, ok := st.bndHi[name]; ok {
			hi = v
		}
		if lo > hi {
			return nil, fmt.Errorf("mps: column %q has empty bound interval [%g, %g]", name, lo, hi)
		}
		p.AddCol(c.obj, lo, hi)
		m.integer = append(m.integer, c.integer)
	}
	// Rows in declaration order; entries per row in COLUMNS order.
	type entry struct {
		col int
		val float64
	}
	rows := make([][]entry, len(st.rowOrder))
	for j, name := range st.colOrder {
		c := st.cols[name]
		for i, r := range c.rows {
			rows[r] = append(rows[r], entry{j, c.vals[i]})
		}
	}
	for r, name := range st.rowOrder {
		rhs := st.rhs[name]
		var lo, hi float64
		switch st.rowKind[name] {
		case 'N':
			lo, hi = math.Inf(-1), math.Inf(1)
		case 'L':
			lo, hi = math.Inf(-1), rhs
			if rg, ok := st.rng[name]; ok {
				lo = rhs - math.Abs(rg)
			}
		case 'G':
			lo, hi = rhs, math.Inf(1)
			if rg, ok := st.rng[name]; ok {
				hi = rhs + math.Abs(rg)
			}
		case 'E':
			lo, hi = rhs, rhs
			if rg, ok := st.rng[name]; ok {
				if rg >= 0 {
					hi = rhs + rg
				} else {
					lo = rhs + rg
				}
			}
		}
		cols := make([]int, len(rows[r]))
		vals := make([]float64, len(rows[r]))
		for i, e := range rows[r] {
			cols[i], vals[i] = e.col, e.val
		}
		p.AddRow(lo, hi, cols, vals)
	}
	return m, nil
}
