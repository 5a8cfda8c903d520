package mir

import (
	"math/bits"
	"slices"
)

// TempSet is a set of temps as a bit set over Program.NumTemps().
type TempSet []uint64

// Has reports whether t is in s.
func (s TempSet) Has(t Temp) bool { return s[t>>6]&(1<<(t&63)) != 0 }

// Add puts t in s.
func (s TempSet) Add(t Temp) { s[t>>6] |= 1 << (t & 63) }

func (s TempSet) del(t Temp) { s[t>>6] &^= 1 << (t & 63) }

// Len returns the number of temps in s.
func (s TempSet) Len() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// AppendTo appends the members of s to dst in ascending order.
func (s TempSet) AppendTo(dst []Temp) []Temp {
	for i, w := range s {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, Temp(i<<6+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// step moves s from the set live after in to the set live before it.
func (s TempSet) step(in *Instr) {
	for _, d := range in.Dsts {
		s.del(d)
	}
	s.addOperands(in.Srcs)
}

func (s TempSet) addOperands(ops []Operand) {
	for _, o := range ops {
		if !o.IsImm {
			s.Add(o.Temp)
		}
	}
}

// newSets returns n empty sets of w words each, cut from one array.
func newSets(n, w int) []TempSet {
	words := make([]uint64, n*w)
	sets := make([]TempSet, n)
	for i := range sets {
		sets[i] = words[i*w : (i+1)*w : (i+1)*w]
	}
	return sets
}

// Liveness holds per-block live-in/live-out temp sets, computed by the
// usual backward dataflow over the flowgraph. Block parameters are the
// only merge-point definitions (SSA block-argument form), so liveness
// never needs phi special-casing: In excludes the block's params.
type Liveness struct {
	In  []TempSet // indexed by BlockID
	Out []TempSet
}

// ComputeLiveness runs the fixpoint.
func ComputeLiveness(p *Program) *Liveness {
	n := len(p.Blocks)
	sets := newSets(2*n+2, (p.NumTemps()+63)/64)
	lv := &Liveness{In: sets[:n:n], Out: sets[n : 2*n : 2*n]}
	in, out := sets[2*n], sets[2*n+1]
	for changed := true; changed; {
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := p.Blocks[i]
			// Out is the union over edges of In(succ), which has no
			// params of succ, and the edge's args.
			clear(out)
			for _, e := range b.Succs() {
				for j, x := range lv.In[e.To] {
					out[j] |= x
				}
				out.addOperands(e.Args)
			}
			copy(in, out)
			in.addOperands(b.TermUses())
			for k := len(b.Instrs) - 1; k >= 0; k-- {
				in.step(&b.Instrs[k])
			}
			for _, pt := range b.Params {
				in.del(pt)
			}
			if !slices.Equal(in, lv.In[i]) || !slices.Equal(out, lv.Out[i]) {
				changed = true
				copy(lv.In[i], in)
				copy(lv.Out[i], out)
			}
		}
	}
	return lv
}

// Points returns the temps live before each point of b, from one
// backward walk: entry k < len(b.Instrs) is the set before instruction
// k, and entry len(b.Instrs) the set before the terminator (Out plus
// the terminator's operands). Params used in b are live at entry 0.
// The sets are fresh and the caller's to change.
func (lv *Liveness) Points(b *Block) []TempSet {
	n := len(b.Instrs)
	sets := newSets(n+1, len(lv.Out[b.ID]))
	copy(sets[n], lv.Out[b.ID])
	sets[n].addOperands(b.TermUses())
	for k := n - 1; k >= 0; k-- {
		copy(sets[k], sets[k+1])
		sets[k].step(&b.Instrs[k])
	}
	return sets
}
