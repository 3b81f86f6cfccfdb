// Command distcolorvet is the repository's static-analysis multichecker:
// the syntax-directed invariant passes (detcheck, noallochot, ctxfirst,
// recovercheck), the flow-sensitive passes built on the in-tree CFG +
// dataflow engine (lockguard, leakcheck, lockorder, decodebounds,
// atomicguard), and stdlib reimplementations of the stock nilness and
// shadow vet analyzers, speaking the `go vet -vettool` protocol.
//
// Run it through the build system, never by hand:
//
//	make lint          # builds bin/distcolorvet, then
//	                   # go vet -vettool=bin/distcolorvet ./...
//
// Individual passes can be disabled for triage, e.g.
//
//	go vet -vettool=bin/distcolorvet -lockguard=false ./...
//
// and -json switches the plain-text findings to NDJSON (one object per
// finding, suppressed ones included) for tooling such as the CI problem
// matcher.
//
// See DESIGN.md §10 for each pass's contract, the annotation grammar
// (//distcolor:noalloc, "guarded by", //distcolor:detached), and the
// suppression policy (//distcolor:ignore <analyzer> <reason>).
package main

import "repro/internal/analyzers"

func main() {
	analyzers.Main(analyzers.All()...)
}
