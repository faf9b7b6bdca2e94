// Package truthtab implements dense bitset truth tables for Boolean
// functions of up to 24 variables.
//
// A function f of n variables is stored as a bit vector of length 2^n:
// bit i holds f(a) where the assignment a sets variable k to bit k of i
// (variable 0 is the least significant index bit). Variables are
// conventionally displayed 1-indexed (x1 = variable 0) to match the
// notation of the DATE'17 paper this library reproduces.
//
// All operations return fresh values; a TT is never mutated after
// construction except through SetBit and OrProduct on a table the
// caller owns.
package truthtab

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

// MaxVars is the largest supported number of variables. 2^24 bits = 2 MiB
// per table, which keeps exhaustive algorithms tractable while covering
// every function size used by the benchmark suite.
const MaxVars = 24

// TT is a truth table over n Boolean variables.
type TT struct {
	n int
	w []uint64
}

func words(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// mask returns the valid-bit mask for the last (only) word of an n-var
// table. For n >= 6 every word is fully used.
func mask(n int) uint64 {
	if n >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << n)) - 1
}

func checkN(n int) {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truthtab: %d variables out of range [0,%d]", n, MaxVars))
	}
}

// New returns the constant-0 function of n variables.
func New(n int) TT {
	checkN(n)
	return TT{n: n, w: make([]uint64, words(n))}
}

// Zero returns the constant-0 function of n variables.
func Zero(n int) TT { return New(n) }

// One returns the constant-1 function of n variables.
func One(n int) TT {
	t := New(n)
	for i := range t.w {
		t.w[i] = ^uint64(0)
	}
	t.w[len(t.w)-1] &= mask(n)
	return t
}

// varWord[v] is the word pattern of variable v < 6: bit a is bit v of a,
// blocks of 2^v zeros and ones alternating.
var varWord = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the projection function x_v of n variables.
func Var(n, v int) TT {
	checkN(n)
	if v < 0 || v >= n {
		panic(fmt.Sprintf("truthtab: variable %d out of range for %d-var table", v, n))
	}
	t := New(n)
	if v < 6 {
		p := varWord[v] & mask(n)
		for i := range t.w {
			t.w[i] = p
		}
		return t
	}
	// Whole words alternate in runs of 2^(v-6).
	run := 1 << (v - 6)
	for i := range t.w {
		if (i/run)&1 == 1 {
			t.w[i] = ^uint64(0)
		}
	}
	return t
}

// VarWord returns the word pattern of variable v < 6: bit a is bit v
// of a. Variables ≥ 6 are constant across a word and select whole words
// by word index instead.
func VarWord(v int) uint64 { return varWord[v] }

// ProductWord returns word wi of the truth table of the product of the
// literals x_v for bit v of pos and x_v' for bit v of neg: the
// variables below 6 select bits inside the word, the others decide
// whether word wi holds any.
func ProductWord(pos, neg uint64, wi int) uint64 {
	hp, hn := pos>>6, neg>>6
	if uint64(wi)&hp != hp || uint64(wi)&hn != 0 {
		return 0
	}
	m := ^uint64(0)
	for v := range 6 {
		if pos>>v&1 == 1 {
			m &= varWord[v]
		}
		if neg>>v&1 == 1 {
			m &^= varWord[v]
		}
	}
	return m
}

// OrProduct sets, in a table the caller owns, every assignment that
// satisfies the product of the literals x_v for bit v of pos and x_v'
// for bit v of neg. Literals of variables ≥ n are ignored.
func (t TT) OrProduct(pos, neg uint64) {
	pos &= 1<<t.n - 1
	neg &= 1<<t.n - 1
	for i := range t.w {
		t.w[i] |= ProductWord(pos, neg, i)
	}
	t.w[len(t.w)-1] &= mask(t.n)
}

// FromMinterms builds a function from the list of on-set minterm indices.
func FromMinterms(n int, ms []uint64) TT {
	t := New(n)
	for _, m := range ms {
		t.SetBit(m, true)
	}
	return t
}

// FromFunc builds an n-variable table by evaluating eval on every
// assignment. Assignment bit k is the value of variable k.
func FromFunc(n int, eval func(a uint64) bool) TT {
	checkN(n)
	t := New(n)
	size := uint64(1) << n
	for a := uint64(0); a < size; a++ {
		if eval(a) {
			t.SetBit(a, true)
		}
	}
	return t
}

// NumVars returns the number of variables n.
func (t TT) NumVars() int { return t.n }

// Size returns 2^n, the number of table entries.
func (t TT) Size() uint64 { return uint64(1) << t.n }

// Bit reports f at assignment a.
func (t TT) Bit(a uint64) bool {
	return t.w[a>>6]>>(a&63)&1 == 1
}

// SetBit sets f(a) to v in place.
func (t *TT) SetBit(a uint64, v bool) {
	if a >= t.Size() {
		panic(fmt.Sprintf("truthtab: minterm %d out of range for %d vars", a, t.n))
	}
	if v {
		t.w[a>>6] |= 1 << (a & 63)
	} else {
		t.w[a>>6] &^= 1 << (a & 63)
	}
}

func (t TT) checkSame(u TT) {
	if t.n != u.n {
		panic(fmt.Sprintf("truthtab: mixing %d-var and %d-var tables", t.n, u.n))
	}
}

// And returns t ∧ u.
func (t TT) And(u TT) TT {
	t.checkSame(u)
	r := New(t.n)
	for i := range r.w {
		r.w[i] = t.w[i] & u.w[i]
	}
	return r
}

// Or returns t ∨ u.
func (t TT) Or(u TT) TT {
	t.checkSame(u)
	r := New(t.n)
	for i := range r.w {
		r.w[i] = t.w[i] | u.w[i]
	}
	return r
}

// Xor returns t ⊕ u.
func (t TT) Xor(u TT) TT {
	t.checkSame(u)
	r := New(t.n)
	for i := range r.w {
		r.w[i] = t.w[i] ^ u.w[i]
	}
	return r
}

// AndNot returns t ∧ ¬u.
func (t TT) AndNot(u TT) TT {
	t.checkSame(u)
	r := New(t.n)
	for i := range r.w {
		r.w[i] = t.w[i] &^ u.w[i]
	}
	return r
}

// Not returns ¬t.
func (t TT) Not() TT {
	r := New(t.n)
	for i := range r.w {
		r.w[i] = ^t.w[i]
	}
	r.w[len(r.w)-1] &= mask(t.n)
	return r
}

// Equal reports whether t and u are the same function.
func (t TT) Equal(u TT) bool {
	if t.n != u.n {
		return false
	}
	for i := range t.w {
		if t.w[i] != u.w[i] {
			return false
		}
	}
	return true
}

// IsZero reports whether t is the constant-0 function.
func (t TT) IsZero() bool {
	for _, w := range t.w {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOne reports whether t is the constant-1 function.
func (t TT) IsOne() bool {
	return t.CountOnes() == t.Size()
}

// CountOnes returns |on-set|.
func (t TT) CountOnes() uint64 {
	var c uint64
	for _, w := range t.w {
		c += uint64(bits.OnesCount64(w))
	}
	return c
}

// Implies reports whether t ⇒ u (on-set containment).
func (t TT) Implies(u TT) bool {
	t.checkSame(u)
	for i := range t.w {
		if t.w[i]&^u.w[i] != 0 {
			return false
		}
	}
	return true
}

// Cofactor returns f with variable v fixed to val. The result is still an
// n-variable table, independent of variable v.
func (t TT) Cofactor(v int, val bool) TT {
	if v < 0 || v >= t.n {
		panic(fmt.Sprintf("truthtab: cofactor variable %d out of range", v))
	}
	r := New(t.n)
	if v < 6 {
		sh := uint(1) << v
		blk := uint64(1)<<(1<<v) - 1
		var sel uint64 // bits where xv == val within a word
		for s := uint(0); s < 64; s += 2 * sh {
			if val {
				sel |= blk << (s + sh)
			} else {
				sel |= blk << s
			}
		}
		for i, w := range t.w {
			kept := w & sel
			if val {
				r.w[i] = kept | kept>>sh
			} else {
				r.w[i] = kept | kept<<sh
			}
		}
		if t.n < 6 {
			r.w[0] &= mask(t.n)
		}
		return r
	}
	run := 1 << (v - 6)
	// Pick the source half for every word.
	for i := range r.w {
		hi := (i/run)&1 == 1
		src := i
		if val && !hi {
			src = i + run
		}
		if !val && hi {
			src = i - run
		}
		r.w[i] = t.w[src]
	}
	return r
}

// DependsOn reports whether f actually depends on variable v.
func (t TT) DependsOn(v int) bool {
	return !t.Cofactor(v, false).Equal(t.Cofactor(v, true))
}

// Support returns the variables f depends on, ascending.
func (t TT) Support() []int {
	var s []int
	for v := 0; v < t.n; v++ {
		if t.DependsOn(v) {
			s = append(s, v)
		}
	}
	return s
}

// Dual returns the dual function f^D(x) = ¬f(¬x).
func (t TT) Dual() TT {
	r := New(t.n)
	all := t.Size() - 1
	for a := uint64(0); a < t.Size(); a++ {
		if !t.Bit(all ^ a) {
			r.SetBit(a, true)
		}
	}
	return r
}

// Minterms returns the on-set minterm indices, ascending.
func (t TT) Minterms() []uint64 {
	ms := make([]uint64, 0, t.CountOnes())
	t.ForEachMinterm(func(a uint64) { ms = append(ms, a) })
	return ms
}

// ForEachMinterm calls fn for every on-set minterm, ascending.
func (t TT) ForEachMinterm(fn func(a uint64)) {
	for i, w := range t.w {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(uint64(i)<<6 | uint64(b))
			w &^= 1 << b
		}
	}
}

// NumWords returns the length of the Words vector: ceil(2^n / 64),
// minimum one.
func (t TT) NumWords() int { return len(t.w) }

// Word returns word i of the Words vector without copying. Bit-parallel
// evaluators compare against tables word-by-word through this accessor
// so their steady-state loops stay allocation-free.
func (t TT) Word(i int) uint64 { return t.w[i] }

// Words returns a copy of the backing bit vector, least significant
// word first. The slice has exactly ceil(2^n / 64) entries (one word
// minimum) and unused high bits of the last word are zero, so the
// result is a canonical serialization of the function.
func (t TT) Words() []uint64 {
	w := make([]uint64, len(t.w))
	copy(w, t.w)
	return w
}

// Parse decodes the String representation "n:0xHEX" back into a table.
// It accepts any hex string whose bits fit in 2^n table entries.
func Parse(s string) (TT, error) {
	colon := strings.IndexByte(s, ':')
	if colon < 0 {
		return TT{}, fmt.Errorf("truthtab: missing ':' in %q", s)
	}
	n, err := strconv.Atoi(s[:colon])
	if err != nil || strconv.Itoa(n) != s[:colon] { // reject "+3", "03", "3x"
		return TT{}, fmt.Errorf("truthtab: bad variable count %q in %q", s[:colon], s)
	}
	if n < 0 || n > MaxVars {
		return TT{}, fmt.Errorf("truthtab: %d variables out of range [0,%d]", n, MaxVars)
	}
	hex := s[colon+1:]
	if strings.HasPrefix(hex, "0x") || strings.HasPrefix(hex, "0X") {
		hex = hex[2:]
	}
	if hex == "" {
		return TT{}, fmt.Errorf("truthtab: empty table in %q", s)
	}
	t := New(n)
	// Consume hex digits from the least significant end.
	for i := 0; i < len(hex); i++ {
		c := hex[len(hex)-1-i]
		var v uint64
		switch {
		case c >= '0' && c <= '9':
			v = uint64(c - '0')
		case c >= 'a' && c <= 'f':
			v = uint64(c-'a') + 10
		case c >= 'A' && c <= 'F':
			v = uint64(c-'A') + 10
		default:
			return TT{}, fmt.Errorf("truthtab: bad hex digit %q in %q", c, s)
		}
		if v == 0 {
			continue
		}
		word, shift := i/16, uint(i%16*4)
		if word >= len(t.w) || (word == len(t.w)-1 && v<<shift&^mask(n) != 0) {
			return TT{}, fmt.Errorf("truthtab: table %q overflows %d variables", s, n)
		}
		t.w[word] |= v << shift
	}
	return t, nil
}

// String renders the table as a hex string, most significant word first,
// prefixed by the variable count, e.g. "3:0x96".
func (t TT) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d:0x", t.n)
	started := false
	for i := len(t.w) - 1; i >= 0; i-- {
		if !started {
			if t.w[i] == 0 && i > 0 {
				continue
			}
			fmt.Fprintf(&sb, "%x", t.w[i])
			started = true
		} else {
			fmt.Fprintf(&sb, "%016x", t.w[i])
		}
	}
	return sb.String()
}
