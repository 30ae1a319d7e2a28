package trainer

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/features"
	"repro/internal/gbt"
	"repro/internal/sparse"
	"repro/internal/timing"
)

func trainedBundle(t *testing.T) *core.Predictors {
	t.Helper()
	entries := corpus(t, 32)
	samples, err := Collect(entries, timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumRounds = 20
	preds, err := Train(samples, p, 4)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

func TestSaveLoadBundleRoundTrip(t *testing.T) {
	preds := trainedBundle(t)
	dir := t.TempDir()
	man := Manifest{
		NumFeatures: features.NumFeatures,
		CorpusSeed:  7,
		CorpusCount: 32,
		Oracle:      "model",
	}
	if err := SaveBundle(dir, preds, man); err != nil {
		t.Fatal(err)
	}
	loaded, gotMan, err := LoadBundle(dir, features.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	if gotMan.SchemaVersion != SchemaVersion {
		t.Errorf("schema version %d", gotMan.SchemaVersion)
	}
	if gotMan.CreatedAt == "" {
		t.Error("CreatedAt not stamped")
	}
	// The model oracle prices BSR and CSR5 too; this build cannot convert
	// to them, so their saved models are not loaded.
	var want []sparse.Format
	for _, f := range preds.Formats() {
		if slices.Contains(sparse.Implemented, f) {
			want = append(want, f)
		}
	}
	if got := loaded.Formats(); !slices.Equal(got, want) || len(loaded.ConvTime) != len(want) {
		t.Errorf("loaded %v (%d conversion models), want %v", got, len(loaded.ConvTime), want)
	}
	x := make([]float64, features.NumFeatures)
	for i := range x {
		x[i] = float64(i) * 1.5
	}
	for f, m := range loaded.SpMVTime {
		if got, want := m.Predict(x), preds.SpMVTime[f].Predict(x); got != want {
			t.Errorf("%v: %g vs %g after round trip", f, got, want)
		}
	}
}

func TestLoadBundleRejectsSchemaMismatch(t *testing.T) {
	preds := trainedBundle(t)
	dir := t.TempDir()
	if err := SaveBundle(dir, preds, Manifest{NumFeatures: features.NumFeatures}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the schema version.
	path := filepath.Join(dir, manifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(blob), `"schema_version": 1`, `"schema_version": 999`, 1)
	if mutated == string(blob) {
		t.Fatal("test could not mutate schema version")
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir, features.NumFeatures); err == nil {
		t.Error("schema mismatch accepted")
	}
}

func TestLoadBundleRejectsFeatureCountMismatch(t *testing.T) {
	preds := trainedBundle(t)
	dir := t.TempDir()
	if err := SaveBundle(dir, preds, Manifest{NumFeatures: features.NumFeatures}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir, features.NumFeatures+1); err == nil {
		t.Error("feature-count mismatch accepted")
	}
}

// TestLoadBundleRejectsMalformedModels: a hand-edited or truncated model file
// is a load error (what ocsd -models exits with), never a model that panics
// in Predict on the first stage-2 decision — which under -async happens on a
// team worker and takes the process down.
func TestLoadBundleRejectsMalformedModels(t *testing.T) {
	preds := trainedBundle(t)
	dir := t.TempDir()
	if err := SaveBundle(dir, preds, Manifest{NumFeatures: features.NumFeatures}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "spmv_ELL.json")
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	leaf := `{"feature":-1}`
	node := func(feature int, left, right string) string {
		s := fmt.Sprintf(`{"feature":%d,"split":0.5`, feature)
		if left != "" {
			s += `,"left":` + left
		}
		if right != "" {
			s += `,"right":` + right
		}
		return s + "}"
	}
	model := func(width int, root string) string {
		return fmt.Sprintf(`{"base":1,"num_features":%d,"trees":[{"root":%s}]}`, width, root)
	}
	w := features.NumFeatures
	for name, blob := range map[string]string{
		"nil child":      model(w, node(0, leaf, node(3, "", leaf))),
		"narrower model": model(w-1, node(0, leaf, leaf)),
		"wider model":    model(w+1, node(w, leaf, leaf)),
	} {
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadBundle(dir, features.NumFeatures); err == nil {
			t.Errorf("%s: LoadBundle accepted %s", name, blob)
		} else if !strings.Contains(err.Error(), "spmv_ELL.json") {
			t.Errorf("%s: error %q does not name the file", name, err)
		}
	}
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadBundle(dir, features.NumFeatures); err != nil {
		t.Fatalf("restored bundle no longer loads: %v", err)
	}
}

func TestLoadBundleMissingDir(t *testing.T) {
	if _, _, err := LoadBundle(t.TempDir(), features.NumFeatures); err == nil {
		t.Error("empty directory accepted")
	}
}

// bundleFiles saves p and returns every file SaveBundle wrote, by name.
func bundleFiles(t *testing.T, p *core.Predictors) map[string]string {
	t.Helper()
	dir := t.TempDir()
	man := Manifest{NumFeatures: features.NumFeatures, CreatedAt: "2026-01-01T00:00:00Z"}
	if err := SaveBundle(dir, p, man); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string]string, len(ents))
	for _, e := range ents {
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(blob)
	}
	return files
}

// TestTrainConcurrentFitMatchesSequential: the models are fitted concurrently
// on the worker team, and the saved bundle must be the sequential fit's
// (GOMAXPROCS 1 runs the fits one after another) byte for byte.
func TestTrainConcurrentFitMatchesSequential(t *testing.T) {
	samples, err := Collect(corpus(t, 32), timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	p := gbt.DefaultParams()
	p.NumRounds = 20
	fitAt := func(procs int) map[string]string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		preds, err := Train(samples, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		return bundleFiles(t, preds)
	}
	want := fitAt(1)
	if len(want) < 3 {
		t.Fatalf("sequential bundle has only %d files", len(want))
	}
	for _, procs := range []int{2, 4} {
		got := fitAt(procs)
		if len(got) != len(want) {
			t.Fatalf("GOMAXPROCS=%d: %d files, sequential fit wrote %d", procs, len(got), len(want))
		}
		for name, blob := range want {
			if got[name] != blob {
				t.Errorf("GOMAXPROCS=%d: %s differs from the sequential fit", procs, name)
			}
		}
	}
}

// TestLoadBundleIgnoresRetiredSpMMModels: a bundle is whatever formats its
// manifest lists. A five-format bundle (the measured menu) round-trips with a
// manifest naming exactly those five. Bundles saved by earlier builds must
// keep loading: ones that still priced blocked products list spmm_formats and
// hold spmm_<format>.json files, and ones from before CSC was deleted list
// it — all of that is ignored — and a format this build knows but cannot
// convert to (CSR5, priced only) is dropped like CSC.
func TestLoadBundleIgnoresRetiredSpMMModels(t *testing.T) {
	full := trainedBundle(t)
	menu := []sparse.Format{sparse.FmtDIA, sparse.FmtELL, sparse.FmtHYB, sparse.FmtSELL, sparse.FmtJDS}
	preds := core.NewPredictors()
	for _, f := range menu {
		if full.ConvTime[f] == nil || full.SpMVTime[f] == nil {
			t.Fatalf("test bundle has no %v models", f)
		}
		preds.ConvTime[f], preds.SpMVTime[f] = full.ConvTime[f], full.SpMVTime[f]
	}
	dir := t.TempDir()
	if err := SaveBundle(dir, preds, Manifest{NumFeatures: features.NumFeatures}); err != nil {
		t.Fatal(err)
	}
	loaded, man, err := LoadBundle(dir, features.NumFeatures)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"DIA", "ELL", "HYB", "SELL", "JDS"}; !slices.Equal(man.Formats, want) {
		t.Errorf("manifest lists %v, want exactly %v", man.Formats, want)
	}
	if got := loaded.Formats(); !slices.Equal(got, menu) {
		t.Errorf("round trip loaded %v, want %v", got, menu)
	}

	path := filepath.Join(dir, manifestName)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(blob), `"formats": [`, `"spmm_formats": ["CSR", "ELL"],`+"\n  "+`"formats": [`+"\n    "+`"CSC", "CSR5",`, 1)
	if old == string(blob) {
		t.Fatal("test could not add the retired entries to the manifest")
	}
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	model, err := os.ReadFile(filepath.Join(dir, "spmv_ELL.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spmm_CSR.json", "spmm_ELL.json", "conv_CSC.json", "spmv_CSC.json", "conv_CSR5.json", "spmv_CSR5.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), model, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loaded, _, err = LoadBundle(dir, features.NumFeatures)
	if err != nil {
		t.Fatalf("bundle with retired SpMM and CSC models no longer loads: %v", err)
	}
	want := menu
	if got := loaded.Formats(); !slices.Equal(got, want) || len(loaded.ConvTime) != len(want) || len(loaded.SpMVTime) != len(want) {
		t.Errorf("loaded %v (%d/%d models), want %v", got, len(loaded.ConvTime), len(loaded.SpMVTime), want)
	}
}
