package analyzers

// The //distcolor:noalloc annotation set and the dynamic AllocsPerRun
// pins must describe the same hot paths: the pins prove the property on
// the workloads the suite runs, the annotations prove it structurally on
// every path. This meta-test walks the module source and diffs the
// annotated set against the manifest below, so adding or dropping an
// annotation without updating the manifest (or vice versa) is a test
// failure — the sync is audited, not assumed.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// noallocManifest lists every function that must carry the
// //distcolor:noalloc directive, keyed "pkgdir.(recv).Name", with the
// dynamic pin that motivates each entry.
var noallocManifest = map[string]string{
	// Pinned at 0 allocs per round by TestSequentialSteadyStateAllocFree
	// and TestReverseSequentialSteadyStateAllocFree (plane_test.go),
	// TestWordPlaneSteadyStateAllocFree and, on line topologies,
	// TestLinePlaneSteadyStateAllocFree (words_test.go),
	// TestInstrumentedSteadyStateAllocFree (bandwidth_test.go), and the
	// bench gate's allocs_per_round=0 columns (BENCH_simcore.json).
	"internal/sim.(instance).stepShard":      "sim round loop, one shard's step",
	"internal/sim.(instance).stepVertex":     "sim round loop, port plane",
	"internal/sim.(instance).inbox":          "sim round loop, port-plane inbox",
	"internal/sim.(Outbox).begin":            "sim round loop, port-plane outbox",
	"internal/sim.(Outbox).SendAll":          "sim round loop, port-plane broadcast",
	"internal/sim.msgTraffic":                "sim round loop, port-plane accounting",
	"internal/sim.(instance).stepVertexWord": "sim round loop, word plane",
	"internal/sim.(instance).retireRound":    "sim round loop, halt retirement",
	"internal/sim.(instance).silence":        "sim round loop, halt retirement",
	// The port plane's unicasts, pinned at 0 allocs per round by
	// TestPortPlaneUnicastSteadyStateAllocFree (plane_test.go) on both
	// sequential engines, and at a whole-run count independent of n by
	// TestMergeAllocsIndependentOfN (arbor_test.go).
	"internal/sim.(Outbox).Send":      "sim round loop, port-plane unicast",
	"internal/sim.(instance).deliver": "sim round loop, unicast delivery",
	"internal/sim.(instance).post":    "sim round loop, unicast delivery",
	// The active-set path, pinned by TestActiveSetSteadyStateAllocFree
	// (words_test.go) on both planes and TestLinePlaneSteadyStateAllocFree
	// on line topologies, on both sequential engines.
	"internal/sim.(union).next":                "sim round loop, a subset round's step order",
	"internal/sim.(instance).stepVertexActive": "sim round loop, active-set step",
	"internal/sim.(instance).wordTraffic":      "sim round loop, active-set traffic",
	"internal/sim.(instance).carryRound":       "sim round loop, active-set carry",
	"internal/sim.(tally).add":                 "sim round loop, active-set running sums",
	"internal/sim.(tally).merge":               "sim round loop, active-set running sums",
	// The word programs' steps, run by stepVertexWord: pinned at a whole-run
	// allocation count independent of n by TestReduceAllocsIndependentOfN
	// (linial_test.go), TestReductionAllocsIndependentOfN
	// (reduce_test.go) and TestHPartitionAllocsIndependentOfN
	// (arbor_test.go), and by the algo/* bench-gate rows.
	"internal/linial.(program).StepWord":    "linial reduction step",
	"internal/linial.applyStep":             "linial polynomial evaluation",
	"internal/linial.(field).divmod":        "linial Barrett division",
	"internal/linial.(field).mod":           "linial Barrett reduction",
	"internal/linial.(field).decompose":     "linial base-q decomposition",
	"internal/linial.(field).decomposeAll":  "linial neighbor decompositions",
	"internal/linial.(field).avoids":        "linial evaluation-point check",
	"internal/linial.(field).eval":          "linial Horner evaluation",
	"internal/linial.(field).lazy":          "linial Horner overflow bound",
	"internal/reduce.(kwProgram).StepWord":  "Kuhn–Wattenhofer reduction step",
	"internal/reduce.(kwProgram).Active":    "Kuhn–Wattenhofer active set",
	"internal/reduce.(kwProgram).bucket":    "Kuhn–Wattenhofer class buckets",
	"internal/reduce.(kwRound).class":       "Kuhn–Wattenhofer phase class",
	"internal/reduce.phaseColor":            "Kuhn–Wattenhofer starting-to-phase numbering",
	"internal/reduce.startColor":            "Kuhn–Wattenhofer phase-to-starting numbering",
	"internal/reduce.smallestFree":          "reduction free-color search",
	"internal/arbor.(peelProgram).StepWord": "H-partition peeling step",
	// Pinned at 0 allocs/observation by TestInstrumentsZeroAlloc
	// (obs_test.go).
	"internal/obs.(Counter).Add":       "obs hot instrument",
	"internal/obs.(Counter).Inc":       "obs hot instrument",
	"internal/obs.(Gauge).Set":         "obs hot instrument",
	"internal/obs.(Gauge).Add":         "obs hot instrument",
	"internal/obs.(Histogram).Observe": "obs hot instrument",
	// Pinned at a constant allocation count per labeling, whatever the
	// number of passes, candidates and certificates, by
	// TestCanonicalLabelingAllocs (internal/graph/canonical_test.go).
	"internal/graph.(canonizer).refinePass":  "canonical labeling refinement pass",
	"internal/graph.(canonizer).refine":      "canonical labeling refinement to a stable partition",
	"internal/graph.(canonizer).certificate": "canonical labeling candidate certificate",
	"internal/graph.sortEdgesByPair":         "canonical labeling certificate counting sort",
	"internal/graph.countOffsets":            "canonical labeling counting-sort offsets",
	"internal/graph.(Graph).twins":           "canonical labeling twin check",
}

// collectNoallocAnnotations parses every non-test .go file under the
// module root and returns the qualified names of functions carrying the
// directive.
func collectNoallocAnnotations(t *testing.T, root string) map[string]bool {
	t.Helper()
	out := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", "bin", ".git":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if perr != nil {
			return perr
		}
		rel, rerr := filepath.Rel(root, filepath.Dir(path))
		if rerr != nil {
			return rerr
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !funcDirective(fd, noallocDirective) {
				continue
			}
			out[filepath.ToSlash(rel)+"."+recvQualifier(fd)+fd.Name.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// recvQualifier renders a receiver as "(T)." with pointers stripped, or
// "" for plain functions.
func recvQualifier(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if st, ok := t.(*ast.StarExpr); ok {
		t = st.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return "(" + id.Name + ")."
	}
	return "(?)."
}

func TestNoallocAnnotationsMatchAllocsPerRunPins(t *testing.T) {
	annotated := collectNoallocAnnotations(t, filepath.Join("..", ".."))
	var missing, unexpected []string
	for name := range noallocManifest {
		if !annotated[name] {
			missing = append(missing, name)
		}
	}
	for name := range annotated {
		if _, ok := noallocManifest[name]; !ok {
			unexpected = append(unexpected, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	for _, name := range missing {
		t.Errorf("manifest entry %s (%s) is not annotated //distcolor:noalloc", name, noallocManifest[name])
	}
	for _, name := range unexpected {
		t.Errorf("%s is annotated //distcolor:noalloc but absent from noallocManifest; add it with the AllocsPerRun pin that motivates it", name)
	}
}
