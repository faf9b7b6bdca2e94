// Package nanoxbar reproduces "Computing with Nano-Crossbar Arrays:
// Logic Synthesis and Fault Tolerance" (Altun, Ciriani, Tahoori, DATE
// 2017): logic synthesis for diode-, FET- and four-terminal-switch
// nano-crossbar arrays with area optimization, and the paper's built-in
// test, diagnosis, self-mapping, and defect-unaware design flows.
//
// The public SDK lives in pkg/nanoxbar (context-aware typed client
// API, error taxonomy, and the re-exported library surface) with an
// HTTP twin in pkg/nanoxbar/client; the implementation lives under
// internal/ (see DESIGN.md for the module inventory and the
// pkg → engine → internal layering). cmd/ hosts the command-line tools
// and the serving daemon (cmd/repro prints every experiment of the
// paper's evaluation, EXPERIMENTS.md), and examples/ the runnable
// walkthroughs (built on pkg/nanoxbar only).
package nanoxbar
