package distcolor

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/gen"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden wire-codec fixtures under testdata/codec")

// goldenCases pins the wire codec: one Request/Response JSON pair per
// algorithm family, checked into testdata/codec. Every algorithm here is
// deterministic, so the response fixtures are stable across engines and
// platforms; any change to the wire shape (field names, omitempty
// behavior, palette or stats values) shows up as a fixture diff.
func goldenCases(t *testing.T) map[string]*Request {
	t.Helper()
	cycle := GraphSpec{N: 6, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}}}
	reg, err := gen.NearRegular(24, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	forest := gen.ForestUnion(24, 2, 1)
	lg, cover, err := LineCover(gen.ForestUnion(12, 2, 1))
	if err != nil {
		t.Fatal(err)
	}
	cdSpec := Spec(lg)
	cdSpec.Cliques = cover.Cliques
	return map[string]*Request{
		"greedy_cycle":  {Algorithm: AlgoEdgeGreedy, Graph: cycle},
		"star_x1":       {Algorithm: AlgoEdgeStar, Graph: Spec(reg), X: 1},
		"sparse_forest": {Algorithm: AlgoEdgeSparse, Graph: Spec(forest), Arboricity: 3},
		"sparse_52_q":   {Algorithm: AlgoEdgeSparse52, Graph: Spec(forest), Arboricity: 3, Q: 2.5},
		"sparse_params": {Algorithm: AlgoEdgeSparse53, Graph: Spec(forest), Params: Params{"arboricity": 3}},
		"delta1_cycle":  {Algorithm: AlgoVertexDelta1, Graph: cycle},
		"cd_linecover":  {Algorithm: AlgoVertexCD, Graph: cdSpec, X: 1},
		// A deadline-carrying request pins the flag-gated deadline_ms field
		// on both wire formats (flagDeadlineMS on the binary frame).
		"greedy_deadline": {Algorithm: AlgoEdgeGreedy, Graph: cycle, DeadlineMS: 1500},
	}
}

func goldenPath(name, kind string) string {
	return filepath.Join("testdata", "codec", name+"."+kind+".json")
}

func goldenBinPath(name, kind string) string {
	return filepath.Join("testdata", "codec", name+"."+kind+".bin")
}

func writeOrCompare(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test -run TestCodecGolden -update .`): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("wire format drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestCodecGoldenFiles executes every fixture request and compares both
// sides of the wire against the checked-in JSON.
func TestCodecGoldenFiles(t *testing.T) {
	for name, req := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			reqJSON, err := json.MarshalIndent(req, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			reqJSON = append(reqJSON, '\n')
			writeOrCompare(t, goldenPath(name, "request"), reqJSON)

			// The fixture on disk must parse back into an equivalent
			// request (decode side of the round trip).
			var decoded Request
			if err := json.Unmarshal(reqJSON, &decoded); err != nil {
				t.Fatal(err)
			}
			if err := decoded.Validate(); err != nil {
				t.Fatalf("golden request invalid: %v", err)
			}

			resp, err := Execute(context.Background(), &decoded, Options{})
			if err != nil {
				t.Fatal(err)
			}
			respJSON, err := json.MarshalIndent(resp, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			respJSON = append(respJSON, '\n')
			writeOrCompare(t, goldenPath(name, "response"), respJSON)
		})
	}
}

// TestCodecGoldenBinary pins the binary frame encoding byte-for-byte against
// checked-in fixtures, and cross-checks codec equivalence: the binary fixture
// must decode to the same value as the JSON fixture for every golden case.
// `-update` regenerates the .bin files alongside the JSON ones.
func TestCodecGoldenBinary(t *testing.T) {
	for name, req := range goldenCases(t) {
		t.Run(name, func(t *testing.T) {
			reqBin, err := CodecBinary.Encode(req)
			if err != nil {
				t.Fatal(err)
			}
			writeOrCompare(t, goldenBinPath(name, "request"), reqBin)

			var fromBin Request
			if err := CodecBinary.Decode(reqBin, &fromBin); err != nil {
				t.Fatal(err)
			}
			reqJSON, err := CodecJSON.Encode(req)
			if err != nil {
				t.Fatal(err)
			}
			var fromJSON Request
			if err := CodecJSON.Decode(reqJSON, &fromJSON); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(&fromBin, &fromJSON) {
				t.Fatalf("binary and JSON codecs disagree on %s:\nbinary: %+v\njson:   %+v", name, fromBin, fromJSON)
			}

			resp, err := Execute(context.Background(), &fromBin, Options{})
			if err != nil {
				t.Fatal(err)
			}
			respBin, err := CodecBinary.Encode(resp)
			if err != nil {
				t.Fatal(err)
			}
			writeOrCompare(t, goldenBinPath(name, "response"), respBin)

			var respBack Response
			if err := CodecBinary.Decode(respBin, &respBack); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(resp, &respBack) {
				t.Fatalf("binary response round trip drifted for %s", name)
			}
		})
	}
}
