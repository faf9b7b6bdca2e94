package nanoxbar

import (
	"nanoxbar/internal/arith"
	"nanoxbar/internal/benchfn"
)

// Arithmetic-network and benchmark surface: multi-lattice networks
// (the paper's future-work objective 4) and the named benchmark
// function suite the service resolves FunctionSpec.Name against.

// Lattice networks.
type (
	// Network is a feed-forward network of four-terminal lattices.
	Network = arith.Network
	// MooreSpec specifies a synchronous Moore machine.
	MooreSpec = arith.MooreSpec
	// SSM is a synthesized synchronous state machine whose next-state
	// and output logic run on lattices.
	SSM = arith.SSM
)

// RippleAdder builds an n-bit ripple-carry adder network.
func RippleAdder(n int, opts SynthOptions) *Network { return arith.RippleAdder(n, opts) }

// AddUint drives an adder network with two n-bit operands.
func AddUint(nw *Network, n int, a, b uint64) uint64 { return arith.AddUint(nw, n, a, b) }

// Comparator builds an n-bit a>b comparator network.
func Comparator(n int, opts SynthOptions) *Network { return arith.Comparator(n, opts) }

// GreaterUint drives a comparator network.
func GreaterUint(nw *Network, n int, a, b uint64) bool { return arith.GreaterUint(nw, n, a, b) }

// SequenceDetector101 is the classic "101"-with-overlap Moore machine.
func SequenceDetector101() *MooreSpec { return arith.SequenceDetector101() }

// SynthesizeSSM implements a Moore machine's next-state and output
// logic on lattices.
func SynthesizeSSM(sp *MooreSpec, opts SynthOptions) (*SSM, error) {
	return arith.SynthesizeSSM(sp, opts)
}

// Benchmark functions.
type (
	// BenchSpec is one named benchmark function.
	BenchSpec = benchfn.Spec
)

// BenchSuite returns the paper's benchmark suite.
func BenchSuite() []BenchSpec { return benchfn.Suite() }

// Majority is the n-input majority benchmark.
func Majority(n int) BenchSpec { return benchfn.Majority(n) }

// AdderBit is output bit b of an n-bit adder as a flat function.
func AdderBit(n, b int) BenchSpec { return benchfn.AdderBit(n, b) }
