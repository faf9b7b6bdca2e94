package nanoxbar

import (
	"math/rand"

	"nanoxbar/internal/bism"
	"nanoxbar/internal/bist"
	"nanoxbar/internal/core"
	"nanoxbar/internal/defect"
	"nanoxbar/internal/dflow"
)

// Fault-tolerance surface: the paper's Section IV machinery — defect
// maps, built-in self test/diagnosis, self-mapping schemes, and the
// defect-unaware design flow — re-exported for direct (non-service)
// use by simulators and tools.

// Defect maps.
type (
	// DefectMap is the physical defect map of one fabricated chip:
	// per-crosspoint stuck-open/stuck-closed faults plus broken and
	// bridged wires.
	DefectMap = defect.Map
	// DefectParams parameterize random defect injection.
	DefectParams = defect.Params
)

// NewDefectMap allocates a defect-free r×c map.
func NewDefectMap(r, c int) *DefectMap { return defect.NewMap(r, c) }

// UniformCrosspoint is the paper's defect model: uniform crosspoint
// defect density, split 80/20 stuck-open/stuck-closed.
func UniformCrosspoint(density float64) DefectParams { return defect.UniformCrosspoint(density) }

// RandomDefectMap draws an r×c map from the defect model.
func RandomDefectMap(r, c int, p DefectParams, rng *rand.Rand) *DefectMap {
	return defect.Random(r, c, p, rng)
}

// Built-in self test and diagnosis (BIST/BISD).
type (
	// BISTSuite is a set of test configurations with fault coverage
	// and diagnosis machinery.
	BISTSuite = bist.Suite
)

// DetectionSuite builds the paper's O(1)-configuration detection suite
// for an r×c crossbar.
func DetectionSuite(r, c int) *BISTSuite { return bist.DetectionSuite(r, c) }

// DiagnosisSuite builds the log-bounded diagnosis suite.
func DiagnosisSuite(r, c int) *BISTSuite { return bist.DiagnosisSuite(r, c) }

// BISTLogBound is the information-theoretic configuration lower bound
// for diagnosing an r×c crossbar.
func BISTLogBound(r, c int) int { return bist.LogBound(r, c) }

// Built-in self mapping (BISM).
type (
	// Mapper is a self-mapping scheme placing an application on a
	// defective chip.
	Mapper = bism.Mapper
	// Blind retries random placements.
	Blind = bism.Blind
	// Greedy repairs failing placements resource by resource.
	Greedy = bism.Greedy
	// Hybrid runs a blind budget first, then greedy repair.
	Hybrid = bism.Hybrid
	// App is the application matrix to place.
	App = bism.App
	// Chip wraps a defect map for mapping queries.
	Chip = bism.Chip
	// MapReport is the outcome of MapWithRecovery.
	MapReport = core.MapReport
)

// NewChip wraps a defect map for the mappers.
func NewChip(m *DefectMap) *Chip { return bism.NewChip(m) }

// RandomApp draws a random r×c application matrix with the given
// crosspoint usage density.
func RandomApp(r, c int, density float64, rng *rand.Rand) *App {
	return bism.RandomApp(r, c, density, rng)
}

// MapWithRecovery places a synthesized implementation on a defective
// chip with the chosen scheme, reporting the recovery effort.
func MapWithRecovery(im *Implementation, chip *DefectMap, scheme Mapper, maxAttempts int, rng *rand.Rand) (*MapReport, error) {
	return core.MapWithRecovery(im, chip, scheme, maxAttempts, rng)
}

// Defect-unaware design flow.
type (
	// Extraction is a recovered universal k×k sub-crossbar.
	Extraction = dflow.Extraction
	// FlowCosts parameterize the defect-aware vs defect-unaware flow
	// cost comparison.
	FlowCosts = dflow.Costs
)

// GreedyExtraction recovers a universal defect-free sub-crossbar from
// a defective chip.
func GreedyExtraction(m *DefectMap) *Extraction { return dflow.Greedy(m) }

// RawMapBits is the descriptor size of a full n×n defect map.
func RawMapBits(n int) int { return dflow.RawMapBits(n) }

// DefaultFlowCosts mirror the paper's flow cost model.
func DefaultFlowCosts() FlowCosts { return dflow.DefaultCosts() }

// CompareFlows reports total cost of the defect-aware and
// defect-unaware flows for nChips chips × nApps applications.
func CompareFlows(n, k, nChips, nApps int, c FlowCosts) (aware, unaware float64) {
	return dflow.CompareFlows(n, k, nChips, nApps, c)
}
