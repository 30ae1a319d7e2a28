package trainer

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gbt"
	"repro/internal/sparse"
)

// Manifest records how a persisted predictor bundle was produced, so a
// loaded bundle can be audited (and rejected when the feature schema it
// was trained against no longer matches the code).
type Manifest struct {
	// SchemaVersion identifies the feature-vector layout; bundles with a
	// different version than the running code are rejected at load time.
	SchemaVersion int `json:"schema_version"`
	// NumFeatures is the feature-vector length at training time.
	NumFeatures int `json:"num_features"`
	// CreatedAt is the training timestamp (RFC 3339).
	CreatedAt string `json:"created_at"`
	// CorpusSeed / CorpusCount describe the training corpus.
	CorpusSeed  int64 `json:"corpus_seed"`
	CorpusCount int   `json:"corpus_count"`
	// Oracle names the cost source ("measured" or "model").
	Oracle string `json:"oracle"`
	// Formats lists the formats with trained models.
	Formats []string `json:"formats"`
	// CVErrors records the per-format 5-fold CV relative errors at
	// training time (index-aligned with Formats): conversion then SpMV.
	CVConvErrors []float64 `json:"cv_conv_errors,omitempty"`
	CVSpMVErrors []float64 `json:"cv_spmv_errors,omitempty"`
}

// SchemaVersion is bumped whenever the feature set changes incompatibly.
const SchemaVersion = 1

const manifestName = "manifest.json"

// SaveBundle persists the predictors plus a manifest under dir.
func SaveBundle(dir string, p *core.Predictors, man Manifest) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trainer: %w", err)
	}
	man.SchemaVersion = SchemaVersion
	if man.CreatedAt == "" {
		man.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	}
	man.Formats = man.Formats[:0]
	for _, f := range p.Formats() {
		man.Formats = append(man.Formats, f.String())
		for kind, m := range map[string]*gbt.Model{"conv": p.ConvTime[f], "spmv": p.SpMVTime[f]} {
			blob, err := m.Save()
			if err != nil {
				return fmt.Errorf("trainer: saving %s model for %v: %w", kind, f, err)
			}
			path := filepath.Join(dir, fmt.Sprintf("%s_%s.json", kind, f))
			if err := os.WriteFile(path, blob, 0o644); err != nil {
				return fmt.Errorf("trainer: %w", err)
			}
		}
	}
	blob, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("trainer: marshaling manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), blob, 0o644); err != nil {
		return fmt.Errorf("trainer: %w", err)
	}
	return nil
}

// LoadBundle restores a bundle saved by SaveBundle, checking the manifest's
// schema version and feature count against the running code, and every
// model's own width against the manifest's. Only formats in
// sparse.Implemented are loaded.
func LoadBundle(dir string, wantFeatures int) (*core.Predictors, *Manifest, error) {
	blob, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, nil, fmt.Errorf("trainer: reading manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(blob, &man); err != nil {
		return nil, nil, fmt.Errorf("trainer: parsing manifest: %w", err)
	}
	if man.SchemaVersion != SchemaVersion {
		return nil, nil, fmt.Errorf("trainer: bundle schema v%d, code expects v%d (retrain)", man.SchemaVersion, SchemaVersion)
	}
	if wantFeatures > 0 && man.NumFeatures != wantFeatures {
		return nil, nil, fmt.Errorf("trainer: bundle trained on %d features, code has %d (retrain)", man.NumFeatures, wantFeatures)
	}
	p := core.NewPredictors()
	for _, name := range man.Formats {
		f, err := sparse.ParseFormat(name)
		if err != nil || !slices.Contains(sparse.Implemented, f) {
			// A format this build no longer has (bundles saved before CSC
			// was deleted list it) or cannot convert to (COO, HYB, BSR,
			// CSR5 and JDS are priced only, so a model-oracle bundle, or
			// one saved while HYB was built, may list them): its
			// models are left on disk, unread, and the runtime never
			// selects a format it cannot build.
			continue
		}
		cm, err := loadModel(filepath.Join(dir, fmt.Sprintf("conv_%s.json", f)), man.NumFeatures)
		if err != nil {
			return nil, nil, err
		}
		sm, err := loadModel(filepath.Join(dir, fmt.Sprintf("spmv_%s.json", f)), man.NumFeatures)
		if err != nil {
			return nil, nil, err
		}
		p.ConvTime[f] = cm
		p.SpMVTime[f] = sm
	}
	if len(p.ConvTime) == 0 {
		return nil, nil, fmt.Errorf("trainer: manifest lists no format this build implements")
	}
	return p, &man, nil
}

func loadModel(path string, width int) (*gbt.Model, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trainer: %w", err)
	}
	m, err := gbt.Load(blob)
	if err != nil {
		return nil, fmt.Errorf("trainer: loading %s: %w", path, err)
	}
	if m.NumFeature != width {
		return nil, fmt.Errorf("trainer: %s takes %d features, the manifest says %d", path, m.NumFeature, width)
	}
	return m, nil
}
