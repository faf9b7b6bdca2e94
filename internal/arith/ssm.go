package arith

import (
	"fmt"
	"math/bits"

	"nanoxbar/internal/isop"
	"nanoxbar/internal/latsynth"
	"nanoxbar/internal/lattice"
	"nanoxbar/internal/qm"
	"nanoxbar/internal/truthtab"
)

// MooreSpec describes a Moore machine: Next[s][in] is the successor of
// state s on input symbol in (inputs are InBits-wide symbols), Out[s]
// the state's output bit. State 0 is the reset state.
type MooreSpec struct {
	NumStates int
	InBits    int
	Next      [][]int
	Out       []bool
}

// Validate checks spec consistency.
func (sp *MooreSpec) Validate() error {
	if sp.NumStates < 1 || sp.InBits < 0 || sp.InBits > 8 {
		return fmt.Errorf("arith: bad SSM shape (%d states, %d input bits)", sp.NumStates, sp.InBits)
	}
	if len(sp.Next) != sp.NumStates || len(sp.Out) != sp.NumStates {
		return fmt.Errorf("arith: table sizes do not match state count")
	}
	for s, row := range sp.Next {
		if len(row) != 1<<uint(sp.InBits) {
			return fmt.Errorf("arith: state %d has %d transitions, want %d", s, len(row), 1<<uint(sp.InBits))
		}
		for _, t := range row {
			if t < 0 || t >= sp.NumStates {
				return fmt.Errorf("arith: state %d transitions to invalid %d", s, t)
			}
		}
	}
	return nil
}

// StateBits returns the register width ⌈log2(NumStates)⌉.
func (sp *MooreSpec) StateBits() int {
	if sp.NumStates <= 1 {
		return 1
	}
	return bits.Len(uint(sp.NumStates - 1))
}

// SSM is a synthesized synchronous state machine: lattices for every
// next-state bit and for the output, plus a behavioral D-flip-flop state
// register (the crossbar memory elements of the paper's objective 3 are
// modeled behaviorally; see DESIGN.md).
type SSM struct {
	Spec      *MooreSpec
	NextBits  []*lattice.Lattice // over stateBits+InBits variables
	OutBit    *lattice.Lattice   // over stateBits variables
	state     int
	stateBits int
}

// SynthesizeSSM builds the machine's combinational logic on lattices.
// Unreachable state codes become don't-cares for the minimizers.
func SynthesizeSSM(sp *MooreSpec, opts latsynth.Options) (*SSM, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	sb := sp.StateBits()
	nVars := sb + sp.InBits
	stateMask := uint64(1)<<uint(sb) - 1
	valid := truthtab.FromFunc(nVars, func(a uint64) bool {
		return int(a&stateMask) < sp.NumStates
	})
	dc := valid.Not()
	m := &SSM{Spec: sp, stateBits: sb}
	for b := 0; b < sb; b++ {
		on := truthtab.FromFunc(nVars, func(a uint64) bool {
			s := int(a & stateMask)
			if s >= sp.NumStates {
				return false
			}
			in := int(a >> uint(sb))
			return sp.Next[s][in]>>uint(b)&1 == 1
		})
		g := flexibleCover(on, dc, opts)
		res, err := latsynth.DualMethod(g, opts)
		if err != nil {
			return nil, err
		}
		m.NextBits = append(m.NextBits, res.Lattice)
	}
	outOn := truthtab.FromFunc(sb, func(a uint64) bool {
		return int(a) < sp.NumStates && sp.Out[a]
	})
	outDC := truthtab.FromFunc(sb, func(a uint64) bool { return int(a) >= sp.NumStates })
	g := flexibleCover(outOn, outDC, opts)
	res, err := latsynth.DualMethod(g, opts)
	if err != nil {
		return nil, err
	}
	m.OutBit = res.Lattice
	return m, nil
}

// flexibleCover picks a function in [on, on∨dc] with a small cover.
func flexibleCover(on, dc truthtab.TT, opts latsynth.Options) truthtab.TT {
	if opts.Exact {
		if cov, err := qm.Minimize(on, dc, opts.QM); err == nil {
			return cov.ToTT(on.NumVars())
		}
	}
	return isop.Cover(on, on.Or(dc)).ToTT(on.NumVars())
}

// Reset returns the machine to state 0.
func (m *SSM) Reset() { m.state = 0 }

// Output returns the Moore output of the current state, evaluated on
// the output lattice.
func (m *SSM) Output() bool {
	return m.OutBit.Eval(uint64(m.state))
}

// Step advances one clock with the given input symbol, evaluating the
// next-state lattices, and returns the new state's output.
func (m *SSM) Step(in uint64) bool {
	a := uint64(m.state) | in<<uint(m.stateBits)
	next := 0
	for b, l := range m.NextBits {
		if l.Eval(a) {
			next |= 1 << uint(b)
		}
	}
	m.state = next
	return m.Output()
}

// Run resets the machine and feeds the input sequence, returning the
// output trace (one sample per clock, after each step).
func (m *SSM) Run(inputs []uint64) []bool {
	m.Reset()
	out := make([]bool, len(inputs))
	for i, in := range inputs {
		out[i] = m.Step(in)
	}
	return out
}

// TotalArea sums the lattice areas of the machine's logic.
func (m *SSM) TotalArea() int {
	area := m.OutBit.Area()
	for _, l := range m.NextBits {
		area += l.Area()
	}
	return area
}

// ReferenceRun simulates the spec directly (no lattices): the golden
// model for equivalence tests.
func (sp *MooreSpec) ReferenceRun(inputs []uint64) []bool {
	s := 0
	out := make([]bool, len(inputs))
	for i, in := range inputs {
		s = sp.Next[s][in]
		out[i] = sp.Out[s]
	}
	return out
}

// SequenceDetector101 is the classic "detect 101" Moore machine used by
// the examples: output 1 exactly after seeing the pattern 1,0,1.
func SequenceDetector101() *MooreSpec {
	// States: 0 = idle, 1 = saw 1, 2 = saw 10, 3 = saw 101 (accept).
	return &MooreSpec{
		NumStates: 4,
		InBits:    1,
		Next: [][]int{
			{0, 1}, // idle: on 0 stay, on 1 → saw1
			{2, 1}, // saw1: on 0 → saw10, on 1 stay
			{0, 3}, // saw10: on 0 → idle, on 1 → accept
			{2, 1}, // accept: overlapping matches: on 0 → saw10, on 1 → saw1
		},
		Out: []bool{false, false, false, true},
	}
}
