package trainer

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/gbt"
	"repro/internal/sparse"
	"repro/internal/timing"
)

// TestTrainedModelsByteIdenticalToRecorded pins what the trainer fits: the
// sha256 of every model's Save() bytes, trained with DefaultParams on a fixed
// model-oracle corpus. The table was recorded at the commit before the tree
// builder lost its hist, subsampling, early-stopping and Gamma paths, so it
// proves the one exact builder left reproduces the default bundle bit for bit.
// A change that moves one split, leaf weight or importance fails here.
func TestTrainedModelsByteIdenticalToRecorded(t *testing.T) {
	golden := map[string]string{}
	f, err := os.Open("testdata/models.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if len(fields) != 2 {
			t.Fatalf("malformed golden line %q", sc.Text())
		}
		golden[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	samples, err := Collect(corpus(t, 48), timing.NewModelOracle())
	if err != nil {
		t.Fatal(err)
	}
	preds, err := Train(samples, gbt.DefaultParams(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var table strings.Builder
	got := 0
	for _, fm := range preds.Formats() {
		for _, kind := range []struct {
			name   string
			models map[sparse.Format]*gbt.Model
		}{{"conv", preds.ConvTime}, {"spmv", preds.SpMVTime}} {
			blob, err := kind.models[fm].Save()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s_%v", kind.name, fm)
			sum := sha256.Sum256(blob)
			digest := hex.EncodeToString(sum[:])
			fmt.Fprintf(&table, "%s %s\n", name, digest)
			got++
			if want, ok := golden[name]; !ok {
				t.Errorf("%s: no golden row", name)
			} else if digest != want {
				t.Errorf("%s: sha256 %s, recorded %s", name, digest, want)
			}
		}
	}
	if got != len(golden) {
		t.Errorf("trained %d models, the golden table has %d rows", got, len(golden))
	}
	if t.Failed() {
		t.Logf("this build's table:\n%s", table.String())
	}
}
