package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"

	"nanoxbar/internal/apierr"
	"nanoxbar/internal/truthtab"
)

// synthVersion is bumped whenever any synthesis algorithm changes its
// output for some input. Cached results keyed with Fingerprint() are
// invalidated automatically across such changes.
const synthVersion = 1

// fingerprint is Fingerprint's string, formatted once: every cache key
// hashes it.
var fingerprint = fmt.Sprintf("nanoxbar-core/%d dual+pcircuit+dreduce qm+isop", synthVersion)

// Fingerprint identifies the synthesis implementation deterministically:
// same binary behavior ⇒ same string, changed behavior ⇒ changed
// version. Persisted caches and cross-process shards include it in
// their keys so stale results can never be served.
func Fingerprint() string { return fingerprint }

// ParseTechnology converts a wire-format name into a Technology. It
// accepts the String() forms plus common aliases.
func ParseTechnology(s string) (Technology, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "diode":
		return Diode, nil
	case "fet":
		return FET, nil
	case "4t-lattice", "4t", "lattice", "fourterminal", "four-terminal":
		return FourTerminal, nil
	}
	return 0, apierr.BadSpec("core: unknown technology %q (want diode|fet|lattice)", s)
}

// Canonical serializes the options deterministically: two Options
// values produce the same string iff Synthesize behaves identically
// under them. Every field that influences synthesis must appear here;
// the encoding is versioned through Fingerprint, not this string.
func (o Options) Canonical() string {
	return fmt.Sprintf("exact=%t qmvars=%d qmprimes=%d qmcoverprimes=%d qmcoverwork=%d cells=%d postreduce=%t postreducemax=%d pcircuit=%t dreduce=%t",
		o.Synth.Exact,
		o.Synth.QM.MaxVars, o.Synth.QM.MaxPrimes, o.Synth.QM.MaxCoverPrimes, o.Synth.QM.MaxCoverWork,
		int(o.Synth.Cells), o.Synth.PostReduce, o.Synth.PostReduceMaxArea,
		o.TryPCircuit, o.TryDReduce)
}

// CacheKey returns a stable, collision-resistant key for the synthesis
// result of (f, tech, opts): a hex SHA-256 over the implementation
// fingerprint, the technology, the canonical options, and the full
// truth table. Identical inputs map to identical keys across processes
// and machines.
func CacheKey(f truthtab.TT, tech Technology, opts Options) string {
	h := sha256.New()
	h.Write([]byte(Fingerprint()))
	h.Write([]byte{0})
	h.Write([]byte(tech.String()))
	h.Write([]byte{0})
	h.Write([]byte(opts.Canonical()))
	h.Write([]byte{0})
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(f.NumVars()))
	h.Write(buf[:])
	for _, w := range f.Words() {
		binary.LittleEndian.PutUint64(buf[:], w)
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
